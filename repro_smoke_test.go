package repro

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestReproSmokeManifest drives cmd/repro the way a user does: a cold
// smoke sweep with -manifest. The top-level run manifest and every
// per-artefact manifest written beside the outputs must decode and pass
// Validate (obs.ReadManifest does both), and every file the run
// manifest hashes must be on disk with that hash. The run manifest
// also carries each job's host wall time as a volatile metric named
// after the job. Byte-determinism across worker counts is
// TestGoldenDeterminismSmoke's job in internal/experiments.
//
// Skipped in -short mode and under the race detector, like
// TestExamplesSmoke: it builds a separate, uninstrumented binary.
func TestReproSmokeManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd/repro build skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("cmd/repro build skipped under the race detector")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "repro")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/repro").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/repro: %v\n%s", err, out)
	}
	outDir := filepath.Join(dir, "out")
	runManifest := filepath.Join(dir, "run.manifest.json")
	cmd := exec.Command(bin, "-sweep", "smoke", "-nocache", "-j", "2",
		"-out", outDir, "-manifest", runManifest)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("repro -sweep smoke: %v\n%s", err, out)
	}

	m, err := obs.ReadManifest(runManifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Binary != "repro" || m.Knobs["sweep"] != "smoke" || len(m.Artefacts) == 0 {
		t.Fatalf("run manifest header: binary %q, sweep %q, %d artefacts",
			m.Binary, m.Knobs["sweep"], len(m.Artefacts))
	}
	jobs, err := experiments.Jobs(experiments.SweepSmoke, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		name := "sched_job_wall_ns_" + j.ID
		if w, ok := m.Metrics[name]; !ok || !w.Volatile || w.Value <= 0 {
			t.Errorf("run manifest metric %s = %+v, want a positive volatile wall time", name, w)
		}
	}
	for name, want := range m.Artefacts {
		content, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Errorf("run manifest lists %s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(content)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s has sha256 %s, run manifest records %s", name, got, want)
		}
	}

	siblings, err := filepath.Glob(filepath.Join(outDir, "*.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(siblings) == 0 {
		t.Fatalf("no per-artefact manifests in %s", outDir)
	}
	for _, path := range siblings {
		if _, err := obs.ReadManifest(path); err != nil {
			t.Error(err)
		}
	}
}

// TestReproCPUProfile runs a smoke fac1 regeneration with -cpuprofile:
// the profile must be written, non-empty and a valid gzip stream (the
// pprof wire format), and the artefacts must still be written beside
// it. Skipped in -short mode and under the race detector, like
// TestReproSmokeManifest.
func TestReproCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd/repro build skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("cmd/repro build skipped under the race detector")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "repro")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/repro").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/repro: %v\n%s", err, out)
	}
	outDir := filepath.Join(dir, "out")
	prof := filepath.Join(dir, "cpu.prof")
	cmd := exec.Command(bin, "-sweep", "smoke", "-only", "fac1", "-nocache", "-j", "1",
		"-out", outDir, "-cpuprofile", prof)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("repro -only fac1 -cpuprofile: %v\n%s", err, out)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzip stream: %v", prof, err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		t.Fatalf("%s: %v", prof, err)
	}
	if n == 0 {
		t.Fatalf("%s decompresses to an empty profile", prof)
	}
	if _, err := os.Stat(filepath.Join(outDir, "fac1.manifest.json")); err != nil {
		t.Errorf("profiled run wrote no fac1 manifest: %v", err)
	}
}
