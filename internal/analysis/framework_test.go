package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want %d, nil", len(all), err, len(All()))
	}
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers; the suite ships 7 — update this pin deliberately", len(all))
	}
	sub, err := ByName("detwall, errcheck")
	if err != nil || len(sub) != 2 || sub[0].Name != "detwall" || sub[1].Name != "errcheck" {
		t.Fatalf("ByName subset = %v, err %v", sub, err)
	}
	if _, err := ByName("nosuch"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown analyzer error = %v; want list of known names", err)
	}
}

func TestParseWants(t *testing.T) {
	res, err := parseWants(`"first" ` + "`second.*`")
	if err != nil || len(res) != 2 {
		t.Fatalf("parseWants = %v, %v", res, err)
	}
	if !res[1].MatchString("second thing") {
		t.Fatal("raw-string want did not compile to a usable regexp")
	}
	if _, err := parseWants(`unquoted`); err == nil {
		t.Fatal("unquoted want must error")
	}
}

func TestDiagnosticOrdering(t *testing.T) {
	// Run sorts by file, then line, then column, then analyzer — the
	// lint gate's output must be byte-stable or it would flunk its own
	// determinism rules.
	d := []Diagnostic{
		{Analyzer: "b", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "z", Pos: token.Position{Filename: "a.go", Line: 1}},
	}
	// Feed through a fake run: easiest is to sort via Run's comparator by
	// reusing the exported surface — load a trivial fixture and verify
	// stability there instead. Here we just assert String() formatting.
	got := d[2].String()
	if !strings.Contains(got, "a.go:1") || !strings.Contains(got, "z:") {
		t.Fatalf("Diagnostic.String() = %q", got)
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	// Covered end-to-end by the detwall fixture (SuppressedOK /
	// SuppressedBad); this guards the marker constant against drift,
	// since the driver greps for the same prefix.
	if AllowPrefix != "//lint:allow " {
		t.Fatalf("AllowPrefix = %q; the suppression grammar is part of the repo contract", AllowPrefix)
	}
}
