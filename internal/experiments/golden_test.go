package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// runArtefacts regenerates a set of artefacts at a sweep with the given
// worker count (no cache) and returns the flattened file map.
func runArtefacts(t *testing.T, sweep Sweep, workers int, ids []string) map[string][]byte {
	t.Helper()
	jobs, err := Jobs(sweep, 0, ids)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sched.Run(jobs, sched.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, r := range results {
		if r.Status != sched.Done {
			t.Fatalf("job %s status %s, want done", r.ID, r.Status)
		}
		for name, data := range r.Files {
			if _, dup := files[name]; dup {
				t.Fatalf("two artefacts produce file %s", name)
			}
			files[name] = data
		}
	}
	return files
}

// compareRuns asserts two regenerations produced byte-identical files.
func compareRuns(t *testing.T, seq, par map[string][]byte) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("file count differs: %d sequential vs %d parallel", len(seq), len(par))
	}
	for name, want := range seq {
		got, ok := par[name]
		if !ok {
			t.Errorf("parallel run missing %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between -j 1 and -j 8", name)
		}
	}
}

// TestGoldenDeterminismSmoke regenerates every artefact at the smoke
// sweep sequentially and with 8 workers and asserts byte-identical
// output: scheduling must not leak into results.
func TestGoldenDeterminismSmoke(t *testing.T) {
	seq := runArtefacts(t, SweepSmoke, 1, nil)
	par := runArtefacts(t, SweepSmoke, 8, nil)
	if len(seq) == 0 {
		t.Fatal("smoke run produced no files")
	}
	compareRuns(t, seq, par)
}

// TestGoldenDeterminismQuick is the same property at the quick sweep —
// the artefact set `cmd/repro -quick` ships — minus fig5, whose Chaste
// sweep dominates the runtime. Skipped in -short mode and under the race
// detector (TestGoldenDeterminismSmoke still covers every generator
// there).
func TestGoldenDeterminismQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-sweep golden run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("quick-sweep golden run skipped under the race detector")
	}
	ids := []string{"fig1", "fig2", "fig3", "fig4", "table2", "fig6", "table3", "fig7", "chaste32"}
	seq := runArtefacts(t, SweepQuick, 1, ids)
	par := runArtefacts(t, SweepQuick, 8, ids)
	compareRuns(t, seq, par)
}

// TestArtefactManifests: every smoke-sweep artefact job emits a sibling
// <id>.manifest.json that validates, hashes exactly its sibling files,
// and contains only deterministic content (no wall time, no volatile
// metrics) — the provenance record TestCommittedManifestDigests checks
// on results/.
func TestArtefactManifests(t *testing.T) {
	jobs, err := Jobs(SweepSmoke, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sched.Run(jobs, sched.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		data, ok := r.Files[r.ID+".manifest.json"]
		if !ok {
			t.Fatalf("%s: no sibling manifest in %d files", r.ID, len(r.Files))
		}
		m, err := obs.DecodeManifest(data)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if m.Binary != "repro" || m.Artefact != r.ID || m.Seed != 7 ||
			m.Knobs["sweep"] != string(SweepSmoke) {
			t.Fatalf("%s: manifest header %+v", r.ID, m)
		}
		if m.WallSeconds != 0 {
			t.Fatalf("%s: wall time %v leaked into a deterministic manifest", r.ID, m.WallSeconds)
		}
		if m.VirtualSeconds <= 0 {
			t.Fatalf("%s: no virtual time recorded", r.ID)
		}
		for name, met := range m.Metrics {
			if met.Volatile {
				t.Fatalf("%s: volatile metric %s in stable snapshot", r.ID, name)
			}
		}
		if len(m.Artefacts) != len(r.Files)-1 {
			t.Fatalf("%s: manifest hashes %d files, want %d", r.ID, len(m.Artefacts), len(r.Files)-1)
		}
		for name, want := range m.Artefacts {
			content, ok := r.Files[name]
			if !ok {
				t.Fatalf("%s: manifest lists unknown file %s", r.ID, name)
			}
			sum := sha256.Sum256(content)
			if hex.EncodeToString(sum[:]) != want {
				t.Fatalf("%s: hash mismatch for %s", r.ID, name)
			}
		}
	}
}

// TestSelectUnknownArtefact pins the -only bugfix: an unknown key errors
// with the known-key list instead of silently selecting nothing.
func TestSelectUnknownArtefact(t *testing.T) {
	if _, err := Jobs(SweepSmoke, 0, []string{"fig9"}); err == nil {
		t.Fatal("want error for unknown artefact fig9")
	} else if want := "unknown artefact"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	} else if !bytes.Contains([]byte(err.Error()), []byte("fig4")) {
		t.Fatalf("err = %v, want known-key list", err)
	}
	sel, err := Select(nil)
	if err != nil || len(sel) != len(Registry()) {
		t.Fatalf("Select(nil) = %d artefacts, err %v; want all", len(sel), err)
	}
}

// TestChecksScheduledMatchesOrder: the scheduled check run returns claims
// in stable report order regardless of worker count.
func TestChecksScheduledMatchesOrder(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-sweep check run skipped in -short mode and under the race detector")
	}
	checks, err := RunChecksScheduled(sched.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"E1", "E2", "E3", "E4a", "E4b", "E4c", "E4d", "E5", "E8a", "E8b", "E8c", "E10"}
	if len(checks) != len(wantOrder) {
		t.Fatalf("got %d checks, want %d", len(checks), len(wantOrder))
	}
	for i, c := range checks {
		if c.ID != wantOrder[i] {
			t.Errorf("check %d = %s, want %s", i, c.ID, wantOrder[i])
		}
		if !c.Passed {
			t.Errorf("check %s failed: %s (%s)", c.ID, c.Claim, c.Detail)
		}
	}
}
