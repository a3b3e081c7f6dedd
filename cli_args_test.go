package repro

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejectsBadArgs runs the built application binaries with
// arguments they must refuse before simulating anything: each has to
// exit with status 1 and a message naming the bad input, prefixed once
// with the command's name, never a Go panic. Skipped in -short mode and
// under the race detector, like TestReproSmokeManifest.
func TestCLIRejectsBadArgs(t *testing.T) {
	if testing.Short() {
		t.Skip("binary builds skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("binary builds skipped under the race detector")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	dir := t.TempDir()
	build := exec.Command(gobin, "build", "-o", dir, "./cmd/arrive", "./cmd/chaste", "./cmd/facility", "./cmd/metum", "./cmd/npb", "./cmd/repro")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		bin  string
		args []string
		want string
	}{
		{"arrive", []string{"-np", "0"}, "arrive: -np must be at least 1, got 0"},
		{"chaste", []string{"-np", "0"}, "chaste: -np must be at least 1, got 0"},
		{"chaste", []string{"-np", "-1"}, "chaste: -np must be at least 1, got -1"},
		{"chaste", []string{"-steps", "-1"}, "chaste: -steps must not be negative, got -1"},
		{"metum", []string{"-np", "0"}, "metum: -np must be at least 1, got 0"},
		{"metum", []string{"-steps", "-1"}, "metum: -steps must not be negative, got -1"},
		{"npb", []string{"-bench", "zz"}, `npb: unknown kernel "zz" (want bt, cg, ep, ft, is, lu, mg, sp)`},
		{"npb", []string{"-bench", "zz", "-np", "3"}, `npb: unknown kernel "zz"`},
		{"npb", []string{"-bench", "ep", "-class", "Z"}, `npb: unknown class "Z"`},
		{"npb", []string{"-bench", "cg", "-mode", "full"}, "npb: kernel cg has no full-math implementation (full-math kernels: ep, ft)"},
		{"npb", []string{"-bench", "ft", "-class", "S", "-np", "128"}, "ft: np=128 must divide ny=64 and nz=64"},
		{"facility", []string{"-jobs", "0"}, "facility: workload needs positive Jobs (0)"},
		{"repro", []string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, "repro: -cpuprofile: open "},
	}
	for _, tc := range cases {
		out, err := exec.Command(filepath.Join(dir, tc.bin), tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %v: err %v, want exit status 1\n%s", tc.bin, tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: output lacks %q:\n%s", tc.bin, tc.args, tc.want, out)
		}
		if prefix := tc.bin + ": "; strings.Contains(string(out), prefix+prefix) {
			t.Errorf("%s %v doubles its error prefix:\n%s", tc.bin, tc.args, out)
		}
		if strings.Contains(string(out), "panic:") {
			t.Errorf("%s %v panicked:\n%s", tc.bin, tc.args, out)
		}
	}
}
