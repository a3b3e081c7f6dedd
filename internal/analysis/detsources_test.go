package analysis

import "testing"

// TestDetSourcesReportedAtSource pins that detwall and detrand between
// them cover every wall-clock and global-rand source an artefact writer
// can reach: the writers in the fixture's experiments package call into
// sim two hops deep, and every unaudited source is reported at its own
// line, while the source under a reviewed detwall allow stays clean.
func TestDetSourcesReportedAtSource(t *testing.T) {
	RunFixture(t, "testdata/src/detsources", "repro/internal/experiments", Detwall, Detrand)
}
