package analysis

import "testing"

func TestDetrandSeedTraceability(t *testing.T) {
	RunFixture(t, "testdata/src/detrand", "repro/internal/fault", Detrand)
}

func TestDetrandEventEngine(t *testing.T) {
	RunFixture(t, "testdata/src/detrand", "repro/internal/pdes", Detrand)
}

func TestDetrandBatchFacility(t *testing.T) {
	RunFixture(t, "testdata/src/detrand", "repro/internal/facility", Detrand)
}
