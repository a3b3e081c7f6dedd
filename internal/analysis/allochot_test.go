package analysis

import (
	"maps"
	"testing"
)

// TestAllochotHotPaths drives the full allocation catalogue through the
// fixture: direct sites (append, make, literals, concat, closures,
// boxing, dynamic dispatch, go statements), cross-package transitive
// facts, allow composition at the leaf and at the site, and the
// panic-argument cold path. The fixture's mpi functions join the
// hot-list for the test's duration; SendCold stays off it.
func TestAllochotHotPaths(t *testing.T) {
	saved := maps.Clone(allochotHot)
	t.Cleanup(func() { allochotHot = saved })
	for _, m := range []string{
		"SendAppend", "SendMake", "SendLiteral", "SendConcat", "SendClosure",
		"SendIndirect", "SendIface", "SendBoxed", "SendTransitive", "SendPooled",
		"SendLen", "SendAllowed", "SendPanicGuard", "SendSpawn",
	} {
		allochotHot["repro/internal/mpi.Comm."+m] = "fixture hot function"
	}
	RunFixture(t, "testdata/src/allochot", "repro/internal/mpi", Allochot)
}

// TestAllochotHotlistResolves pins the embedded hot-list to reality:
// every key must name a function that exists in the module, so a
// refactor that renames a hot function cannot silently drop it from
// the gate.
func TestAllochotHotlistResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := repoRoot(t)
	loader := NewModuleLoader(root, ModulePath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	facts := ComputeFacts(pkgs, nil)
	for _, key := range HotlistKeys() {
		if !facts.Has(key) {
			t.Errorf("allochot_hot.txt entry %q does not resolve to a declared function", key)
		}
	}
}
