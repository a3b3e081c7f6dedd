package perfbench

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadHistory feeds arbitrary bytes to the bench-history reader,
// seeded with the committed history, and runs the regression detector
// over whatever it returns. Any input may be rejected, but none may
// panic: `cmd/bench -report` reads a file anyone can edit by hand.
func FuzzReadHistory(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", "results", "bench", "history.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}\n{\"benchmarks\":[{\"name\":\"a\",\"ns_per_op\":-1}]}\n"))
	f.Add([]byte("{\"benchmarks\":[{\"name\":\"a\",\"ns_per_op\":0}]}\n\n{\"benchmarks\":[{\"name\":\"a\",\"ns_per_op\":1e308}]}\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "history.jsonl")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		history, err := ReadHistory(path)
		if err != nil {
			return
		}
		Regressions(DefaultDetector().Trends(history))
	})
}
