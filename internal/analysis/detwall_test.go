package analysis

import "testing"

func TestDetwallVirtualTimePackage(t *testing.T) {
	RunFixture(t, "testdata/src/detwall", "repro/internal/netmodel", Detwall)
}

// TestDetwallAllowCommentsExemptSchedExecute: the scheduler's volatile
// wall-latency reads are exempt only through reasoned allow comments at
// each read; an allow naming another analyzer silences nothing.
func TestDetwallAllowCommentsExemptSchedExecute(t *testing.T) {
	RunFixture(t, "testdata/src/detwall", "repro/internal/sched", Detwall)
}

func TestDetwallEventEngine(t *testing.T) {
	RunFixture(t, "testdata/src/detwall", "repro/internal/pdes", Detwall)
}

func TestDetwallBatchFacility(t *testing.T) {
	RunFixture(t, "testdata/src/detwall", "repro/internal/facility", Detwall)
}
