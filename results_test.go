package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestCommittedManifestDigests checks the provenance of the committed
// artefacts without regenerating anything: each results/*.manifest.json
// must decode, and every artefact it lists must exist beside it with the
// recorded sha256. Every other committed .csv/.txt file must be covered
// by some manifest.
func TestCommittedManifestDigests(t *testing.T) {
	manifests, err := filepath.Glob(filepath.Join("results", "*.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) == 0 {
		t.Fatal("no committed manifests under results/")
	}
	covered := map[string]bool{}
	for _, path := range manifests {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obs.DecodeManifest(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(m.Artefacts) == 0 {
			t.Errorf("%s lists no artefacts", path)
		}
		for name, want := range m.Artefacts {
			content, err := os.ReadFile(filepath.Join("results", name))
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			sum := sha256.Sum256(content)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: %s has sha256 %s, manifest records %s", path, name, got, want)
			}
			covered[name] = true
		}
	}
	entries, err := os.ReadDir("results")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !(strings.HasSuffix(name, ".csv") || strings.HasSuffix(name, ".txt")) {
			continue
		}
		if !covered[name] {
			t.Errorf("results/%s is not listed by any manifest", name)
		}
	}
}

// TestPDES1FullSweepGolden regenerates artefacts at their committed full
// sweep and byte-compares every file, manifest included, with results/:
// the E13 large-scale artefact (pdes1: class-B skeletons at 1024-16384
// ranks, the largest worlds any artefact builds), chaste32 (the 32-core
// Chaste IPM breakdown, whose KSp halo and all-reduces run through the
// rendezvous schedule evaluator), and the two batch-facility artefacts
// fac1 (E14) and fac2 (E15, up to a million jobs from 10^5 tenants),
// which pin the facility's per-job path: tenant interning, fairshare
// accounts, broker factors and the generator's tenant draws. Skipped in
// -short mode and under the race detector.
func TestPDES1FullSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep regeneration skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-sweep regeneration skipped under the race detector")
	}
	for _, id := range []string{"pdes1", "chaste32", "fac1", "fac2"} {
		t.Run(id, func(t *testing.T) {
			jobs, err := experiments.Jobs(experiments.SweepFull, 0, []string{id})
			if err != nil {
				t.Fatal(err)
			}
			results, err := sched.Run(jobs, sched.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			files := results[0].Files
			names := make([]string, 0, len(files))
			for name := range files {
				names = append(names, name)
			}
			sort.Strings(names)
			if len(names) != 3 {
				t.Fatalf("%s produced %v, want a csv, a txt and a manifest", id, names)
			}
			for _, name := range names {
				want, err := os.ReadFile(filepath.Join("results", name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(files[name], want) {
					t.Errorf("%s differs from the committed artefact", name)
				}
			}
		})
	}
}
