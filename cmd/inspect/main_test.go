package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

func manifestWith(virtual float64, sends int64) *obs.Manifest {
	return &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "npb",
		ModelVersion:   "test-model",
		VirtualSeconds: virtual,
		Metrics: map[string]obs.Metric{
			"mpi_sends_total": {Kind: "counter", Value: sends},
		},
	}
}

// TestDiffToleranceFloatDelta is the regression test for the old
// -fail-on-diff behaviour, which counted ANY float delta — even one far
// below simulation noise — as a difference. Routed through the shared
// comparator, a sub-tolerance virtual-time delta no longer diffs.
func TestDiffToleranceFloatDelta(t *testing.T) {
	a := manifestWith(100.0, 4096)
	b := manifestWith(100.000001, 4096)

	if got := diffManifests(io.Discard, a, b, 0); got != 1 {
		t.Fatalf("exact diff count = %d, want 1 (virtual_seconds differs)", got)
	}
	if got := diffManifests(io.Discard, a, b, 0.01); got != 0 {
		t.Fatalf("tolerant diff count = %d, want 0", got)
	}
	// The tolerance must not mask a real change.
	c := manifestWith(150.0, 4096)
	if got := diffManifests(io.Discard, a, c, 0.01); got != 1 {
		t.Fatalf("real virtual-time change: diff count = %d, want 1", got)
	}
}

func TestDiffToleranceMetrics(t *testing.T) {
	a := manifestWith(100, 1000)
	b := manifestWith(100, 1009)
	if got := diffManifests(io.Discard, a, b, 0); got != 1 {
		t.Fatalf("exact metric diff count = %d, want 1", got)
	}
	if got := diffManifests(io.Discard, a, b, 0.02); got != 0 {
		t.Fatalf("tolerant metric diff count = %d, want 0", got)
	}
	b.Metrics["mpi_sends_total"] = obs.Metric{Kind: "counter", Value: 2000}
	if got := diffManifests(io.Discard, a, b, 0.02); got != 1 {
		t.Fatalf("doubled metric: diff count = %d, want 1", got)
	}
}

// Identity fields stay exact regardless of tolerance.
func TestDiffIdentityFieldsExact(t *testing.T) {
	a := manifestWith(100, 1000)
	b := manifestWith(100, 1000)
	b.Seed = 7
	var sb strings.Builder
	if got := diffManifests(&sb, a, b, 0.5); got != 1 {
		t.Fatalf("seed change under tolerance: diff count = %d, want 1", got)
	}
	if !strings.Contains(sb.String(), "seed") {
		t.Fatalf("diff output %q does not name the seed", sb.String())
	}
}

func TestDiffHistogramMetrics(t *testing.T) {
	h := func(count, sum int64) *obs.Manifest {
		return &obs.Manifest{
			Schema: obs.ManifestSchema, Binary: "npb", ModelVersion: "m",
			Metrics: map[string]obs.Metric{
				"lat_ns": {Kind: "histogram", Count: count, Sum: sum},
			},
		}
	}
	if got := diffManifests(io.Discard, h(100, 5000), h(100, 5040), 0.01); got != 0 {
		t.Fatalf("histogram within tolerance: diff count = %d, want 0", got)
	}
	if got := diffManifests(io.Discard, h(100, 5000), h(100, 9000), 0.01); got != 1 {
		t.Fatalf("histogram sum jump: diff count = %d, want 1", got)
	}
}

func TestWithin(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{100, 100, 0, true},
		{100, 100.0001, 0, false}, // tol 0 demands exactness
		{100, 104, 0.05, true},
		{100, 106, 0.05, false},
		{0, 0, 0, true},
		{-100, -104, 0.05, true},
		{100, 300, 0.25, false},
	}
	for _, c := range cases {
		if got := within(c.a, c.b, c.tol); got != c.want {
			t.Errorf("within(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
		if within(c.a, c.b, c.tol) != within(c.b, c.a, c.tol) {
			t.Errorf("within(%v, %v, %v) is not symmetric", c.a, c.b, c.tol)
		}
	}
}
