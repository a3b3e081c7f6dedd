package analysis

import "testing"

func TestObsstableStableSnapshotContract(t *testing.T) {
	RunFixture(t, "testdata/src/obsstable", "repro/internal/sched", Obsstable)
}
