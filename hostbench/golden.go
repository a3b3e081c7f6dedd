package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// loadGolden reads the committed bytes of one artefact from dir: its
// manifest and every file the manifest names.
func loadGolden(dir, id string) (map[string][]byte, error) {
	name := id + ".manifest.json"
	man, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", id, err)
	}
	m, err := obs.DecodeManifest(man)
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", id, err)
	}
	files := map[string][]byte{name: man}
	for _, f := range sortedKeys(m.Artefacts) {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", id, err)
		}
		files[f] = b
	}
	return files, nil
}

// compareFiles checks that got holds exactly the files of want, byte for
// byte, and names the first file (in name order) that differs.
func compareFiles(want, got map[string][]byte) error {
	for _, name := range sortedKeys(want) {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if string(g) != string(want[name]) {
			return fmt.Errorf("output %s differs from the committed bytes (%d vs %d bytes, first difference at byte %d)",
				name, len(g), len(want[name]), firstDiff(g, want[name]))
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("output %s is not among the committed files", name)
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// digestFiles hashes a file set (names and contents, in name order).
func digestFiles(files map[string][]byte) string {
	h := sha256.New()
	for _, name := range sortedKeys(files) {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// csvColumn parses a committed CSV table and locates the column headed
// col; it returns the data rows and the column's index.
func csvColumn(data []byte, col string) ([][]string, int, error) {
	recs, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("empty csv")
	}
	for i, h := range recs[0] {
		if h == col {
			return recs[1:], i, nil
		}
	}
	return nil, 0, fmt.Errorf("no column %q", col)
}

// csvColumnSum sums an integer column of a CSV table.
func csvColumnSum(data []byte, col string) (int64, error) {
	rows, ci, err := csvColumn(data, col)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, r := range rows {
		v, err := strconv.ParseInt(r[ci], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("column %q: %w", col, err)
		}
		sum += v
	}
	return sum, nil
}
