package analysis

import "testing"

func TestDetmaprangeOrderObservability(t *testing.T) {
	RunFixture(t, "testdata/src/detmaprange", "repro/internal/report", Detmaprange)
}

func TestDetmaprangeBatchFacility(t *testing.T) {
	RunFixture(t, "testdata/src/detmaprange", "repro/internal/facility", Detmaprange)
}
