package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReprolintBinary drives the built binary end to end over a temporary
// module named repro: standalone over the whole module, and under
// `go vet -vettool`, where the go command hands it one package per
// invocation.
func TestReprolintBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go vet; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "reprolint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	for name, src := range map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/ok/ok.go": `package ok

// Twice doubles x.
func Twice(x float64) float64 { return 2 * x }
`,
		"internal/bad/bad.go": `package bad

import "time"

// Stamp reads the wall clock inside a virtual-time package.
func Stamp() int64 { return time.Now().UnixNano() }
`,
	} {
		path := filepath.Join(mod, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// run executes name args in the temporary module and returns the exit
	// code with the combined output.
	run := func(name string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = mod
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, out.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), out.String()
		}
		t.Fatalf("%s %v: %v", name, args, err)
		return 0, ""
	}

	if code, out := run(bin, "./..."); code != 1 || !strings.Contains(out, "detwall") {
		t.Errorf("reprolint ./... = exit %d, output:\n%s\nwant exit 1 naming detwall", code, out)
	}
	if code, out := run(bin, "-only", "nosuch", "./..."); code != 2 {
		t.Errorf("reprolint -only nosuch = exit %d, output:\n%s\nwant exit 2", code, out)
	}
	if code, out := run("go", "vet", "-vettool="+bin, "./internal/ok"); code != 0 {
		t.Errorf("go vet -vettool ./internal/ok = exit %d, output:\n%s\nwant exit 0", code, out)
	}
	if code, out := run("go", "vet", "-vettool="+bin, "./internal/bad"); code == 0 || !strings.Contains(out, "detwall") {
		t.Errorf("go vet -vettool ./internal/bad = exit %d, output:\n%s\nwant a non-zero exit naming detwall", code, out)
	}
}
