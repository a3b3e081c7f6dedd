package analysis

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// loadFactsFixture loads the two-package facts fixture (mid imports
// leaf) and returns every loaded package in sorted path order.
func loadFactsFixture(t *testing.T) []*Package {
	t.Helper()
	l := NewFixtureLoader("testdata/src/facts")
	if _, err := l.Load("repro/internal/mid"); err != nil {
		t.Fatalf("loading facts fixture: %v", err)
	}
	return l.Loaded()
}

// factsOnly filters the fixture packages down to one import path.
func factsOnly(pkgs []*Package, path string) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if p.Path == path {
			out = append(out, p)
		}
	}
	return out
}

// TestFactsCrossPackage asserts the summaries and their witnesses for
// every fixture function: direct allocations of each shape at the leaf,
// lifted facts one and two hops up, and clean functions staying clean.
func TestFactsCrossPackage(t *testing.T) {
	facts := ComputeFacts(loadFactsFixture(t), nil)

	for key, want := range map[string]string{
		"repro/internal/leaf.Alloc":  "make allocates at leaf.go:7",
		"repro/internal/leaf.Concat": "string concatenation builds a new string at leaf.go:10",
		"repro/internal/leaf.Spawn":  "go statement allocates a goroutine at leaf.go:14",
		"repro/internal/mid.Wrap":    "calls repro/internal/leaf.Alloc",
		"repro/internal/mid.Join":    "calls repro/internal/leaf.Concat",
		"repro/internal/mid.Burst":   "calls repro/internal/leaf.Spawn",
	} {
		if ff := facts.Of(key); !ff.Allocates || ff.AllocWhy != want {
			t.Errorf("%s = %+v, want Allocates witnessed by %q", key, ff, want)
		}
	}
	for _, key := range []string{"repro/internal/leaf.Clean", "repro/internal/mid.Calm"} {
		if ff := facts.Of(key); ff.Allocates {
			t.Errorf("%s should be allocation-free: %+v", key, ff)
		}
	}

	const wantChain = "repro/internal/mid.Deep -> repro/internal/mid.Wrap -> " +
		"repro/internal/leaf.Alloc -> make allocates at leaf.go:7"
	if chain := facts.AllocChain("repro/internal/mid.Deep"); chain != wantChain {
		t.Errorf("AllocChain(mid.Deep) = %q, want %q", chain, wantChain)
	}
}

// TestFactsSCCRecursion asserts the SCC condensation: the Even/Odd
// cycle unions Odd's allocation (witness included) into both members,
// and the
// allocation-free self-recursive Count converges without inventing
// facts.
func TestFactsSCCRecursion(t *testing.T) {
	facts := ComputeFacts(loadFactsFixture(t), nil)
	for _, key := range []string{"repro/internal/leaf.Even", "repro/internal/leaf.Odd"} {
		if ff := facts.Of(key); !ff.Allocates || ff.AllocWhy != "make allocates at leaf.go:31" {
			t.Errorf("%s = %+v, want Odd's make as the SCC's shared witness", key, ff)
		}
	}
	if ff := facts.Of("repro/internal/leaf.Count"); ff.Allocates {
		t.Errorf("leaf.Count (self-recursive, allocation-free) = %+v, want no facts", ff)
	}
}

// TestFactsImportedSeed exercises the vettool shape: leaf is analyzed
// alone, its facts round-trip through the JSON export, and mid is then
// analyzed with only the imported table — the lifted facts must come
// out identical to the whole-module run.
func TestFactsImportedSeed(t *testing.T) {
	pkgs := loadFactsFixture(t)
	leafFacts := ComputeFacts(factsOnly(pkgs, "repro/internal/leaf"), nil)

	blob, err := leafFacts.MarshalJSON()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	imported := &Facts{}
	if err := imported.UnmarshalJSON(blob); err != nil {
		t.Fatalf("import: %v", err)
	}

	midFacts := ComputeFacts(factsOnly(pkgs, "repro/internal/mid"), imported)
	whole := ComputeFacts(pkgs, nil)
	for _, key := range []string{
		"repro/internal/mid.Wrap", "repro/internal/mid.Join", "repro/internal/mid.Burst",
		"repro/internal/mid.Calm", "repro/internal/mid.Deep",
	} {
		if got, want := midFacts.Of(key), whole.Of(key); got != want {
			t.Errorf("%s with imported facts = %+v, whole-module run = %+v", key, got, want)
		}
	}
	if ff := midFacts.Of("repro/internal/mid.Join"); !ff.Allocates || ff.AllocWhy != "calls repro/internal/leaf.Concat" {
		t.Errorf("mid.Join with imported facts = %+v, want lifted alloc", ff)
	}
	if !midFacts.Has("repro/internal/leaf.Alloc") {
		t.Error("imported dependency facts should be retained in the merged table")
	}
}

// TestFactsOrderInvariance is the determinism property: any permutation
// of the package load order must produce a bit-identical fact table.
func TestFactsOrderInvariance(t *testing.T) {
	pkgs := loadFactsFixture(t)
	baseline, err := ComputeFacts(pkgs, nil).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shuffled := make([]*Package, len(pkgs))
		for i, j := range r.Perm(len(pkgs)) {
			shuffled[i] = pkgs[j]
		}
		got, err := ComputeFacts(shuffled, nil).MarshalJSON()
		return err == nil && bytes.Equal(got, baseline)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 32}); err != nil {
		t.Errorf("fact table depends on package load order: %v", err)
	}
}
