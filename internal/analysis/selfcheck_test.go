package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", dir)
		}
	}
}

// TestSelfCheck asserts the reprolint suite is clean on the repository
// itself: the gate in make lint must hold for every commit, and the
// analyzers' own package is part of the sweep (the tooling obeys the
// rules it enforces).
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := repoRoot(t)
	loader := NewModuleLoader(root, ModulePath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded (%d); loader is missing the tree", len(pkgs))
	}
	var found []string
	for _, p := range pkgs {
		found = append(found, p.Path)
	}
	for _, must := range []string{
		ModulePath + "/internal/mpi",
		ModulePath + "/internal/experiments",
		ModulePath + "/cmd/repro",
	} {
		if !contains(found, must) {
			t.Fatalf("loader missed %s (got %v)", must, found)
		}
	}
	// Module shape: every package another package can import lives
	// under internal/. That is what lets detwall's internal/* scope
	// cover every clock read an artefact writer can reach.
	for _, p := range pkgs {
		if p.Types.Name() != "main" && !strings.HasPrefix(p.Path, ModulePath+"/internal/") {
			t.Errorf("non-main package %s is outside %s/internal/: detwall would not see its clock reads",
				p.Path, ModulePath)
		}
	}
	diags, err := Run(All(), pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not reprolint-clean: %s", d)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestSelfCheckNewAnalyzers pins lockhyg specifically: the module must
// stay clean under it on its own, so a regression in it cannot hide
// behind the older analyzers' output ordering.
func TestSelfCheckNewAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := repoRoot(t)
	loader := NewModuleLoader(root, ModulePath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run([]*Analyzer{Lockhyg}, pkgs)
	if err != nil {
		t.Fatalf("running lockhyg: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not clean under %s: %s", d.Analyzer, d)
	}
}

// TestSelfCheckSeededViolation proves the gate actually fires: a copy of
// a netmodel-like source with a time.Now call must produce a detwall
// finding when analyzed under its real package path.
func TestSelfCheckSeededViolation(t *testing.T) {
	l := NewFixtureLoader("testdata/src/detwall")
	pkg, err := l.Load("repro/internal/netmodel")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(All(), []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range diags {
		if d.Analyzer == "detwall" && strings.Contains(d.Message, "time.Now") {
			n++
		}
	}
	if n == 0 {
		t.Fatal("seeded time.Now violation was not detected")
	}
}
