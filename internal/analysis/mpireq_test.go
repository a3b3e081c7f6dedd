package analysis

import "testing"

func TestMpireqWaitDiscipline(t *testing.T) {
	RunFixture(t, "testdata/src/mpireq", "repro/internal/osu", Mpireq)
}

func TestMpireqSkipsRuntimePackage(t *testing.T) {
	// The runtime itself hands requests and comms across goroutines by
	// design; the analyzer must stay out of repro/internal/mpi.
	l := NewFixtureLoader("testdata/src/mpireq")
	pkg, err := l.Load("repro/internal/mpi")
	if err != nil {
		t.Fatalf("loading stub mpi: %v", err)
	}
	diags, err := Run([]*Analyzer{Mpireq}, []*Package{pkg})
	if err != nil {
		t.Fatalf("running mpireq: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("mpireq reported inside internal/mpi: %v", diags)
	}
}
