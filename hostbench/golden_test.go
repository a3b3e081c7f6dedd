package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCompareFilesFailures(t *testing.T) {
	want := map[string][]byte{
		"a.csv":           []byte("x,y\n1,2\n"),
		"a.manifest.json": []byte("{}\n"),
	}
	same := map[string][]byte{"a.csv": []byte("x,y\n1,2\n"), "a.manifest.json": []byte("{}\n")}
	if err := compareFiles(want, same); err != nil {
		t.Fatalf("identical files: %v", err)
	}
	cases := []struct {
		name    string
		got     map[string][]byte
		mention string
	}{
		{"changed byte", map[string][]byte{"a.csv": []byte("x,y\n1,3\n"), "a.manifest.json": []byte("{}\n")}, "a.csv differs"},
		{"missing file", map[string][]byte{"a.csv": []byte("x,y\n1,2\n")}, "a.manifest.json missing"},
		{"extra file", map[string][]byte{"a.csv": []byte("x,y\n1,2\n"), "a.manifest.json": []byte("{}\n"), "b.txt": nil}, "b.txt is not among"},
		{"truncated", map[string][]byte{"a.csv": []byte("x,y\n"), "a.manifest.json": []byte("{}\n")}, "first difference at byte 4"},
	}
	for _, c := range cases {
		err := compareFiles(want, c.got)
		if err == nil || !strings.Contains(err.Error(), c.mention) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.mention)
		}
	}
}

func TestLoadGoldenReadsManifestFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{"demo_table.csv": []byte("x\n1\n"), "demo_table.txt": []byte("x 1\n")}
	man, err := (&obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "repro", Artefact: "demo", ModelVersion: "v1",
		Artefacts: obs.HashArtefacts(files),
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	files["demo.manifest.json"] = man
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := loadGolden(dir, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(files, got); err != nil {
		t.Errorf("loaded golden set: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "demo_table.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := loadGolden(dir, "demo"); err == nil {
		t.Error("golden set with a missing file loaded without error")
	}
	if _, err := loadGolden(dir, "absent"); err == nil {
		t.Error("absent artefact loaded without error")
	}
}

func TestDigestDependsOnNamesAndBytes(t *testing.T) {
	a := digestFiles(map[string][]byte{"x": []byte("ab"), "y": []byte("c")})
	if b := digestFiles(map[string][]byte{"x": []byte("ab"), "y": []byte("c")}); a != b {
		t.Error("equal file sets digest differently")
	}
	if b := digestFiles(map[string][]byte{"x": []byte("a"), "y": []byte("bc")}); a == b {
		t.Error("moving a byte between files left the digest unchanged")
	}
	if b := digestFiles(map[string][]byte{"x": []byte("ab"), "z": []byte("c")}); a == b {
		t.Error("renaming a file left the digest unchanged")
	}
}

func TestCSVColumnSum(t *testing.T) {
	data := []byte("jobs,events\n10,20003\n100,200028\n")
	if sum, err := csvColumnSum(data, "events"); err != nil || sum != 220031 {
		t.Errorf("events sum = %d, %v", sum, err)
	}
	if _, err := csvColumnSum(data, "nope"); err == nil {
		t.Error("missing column summed without error")
	}
}
