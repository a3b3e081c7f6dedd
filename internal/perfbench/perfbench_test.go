package perfbench

import (
	"testing"
)

// sink defeats dead-allocation elimination in the budget tests.
var sink []byte

func TestCheckBudgetsFlagsViolation(t *testing.T) {
	benches := []Bench{
		{Name: "hot", Op: func() {}, AllocBudget: 1},
		{Name: "leaky", Op: func() { sink = make([]byte, 1<<16) }, AllocBudget: 0.5},
		{Name: "ungated", Op: func() { sink = make([]byte, 1<<16) }},
	}
	measured, violations := CheckBudgets(benches, 3)
	if _, ok := measured["ungated"]; ok {
		t.Error("ungated benchmark (budget 0) was measured by the gate")
	}
	if got := measured["hot"]; got != 0 {
		t.Errorf("no-op benchmark measured %v allocs/run, want 0", got)
	}
	if len(violations) != 1 || violations[0].Name != "leaky" {
		t.Fatalf("violations = %+v, want exactly [leaky]", violations)
	}
	if violations[0].Error() == "" {
		t.Error("violation renders empty message")
	}
}

func TestSuiteShape(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Op == nil {
			t.Errorf("benchmark %q has no Op", b.Name)
		}
		if b.AllocBudget <= 0 {
			t.Errorf("benchmark %q has no AllocBudget: the suite holds only gates", b.Name)
		}
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
		if got := Within(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Within(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
	// Symmetry.
	if Within(100, 130, 0.25) != Within(130, 100, 0.25) {
		t.Error("Within is not symmetric")
	}
}

func TestCheckNsBudgets(t *testing.T) {
	fast := Bench{Name: "fast", NsBudget: 1e9, Op: func() {}}
	ungated := Bench{Name: "ungated", Op: func() {}}
	slow := Bench{Name: "slow", NsBudget: 1, Op: func() {
		sink = make([]byte, 1<<12)
	}}
	measured, violations := CheckNsBudgets([]Bench{fast, ungated, slow}, 0.25)
	if _, ok := measured["ungated"]; ok {
		t.Fatal("ungated benchmark was measured")
	}
	if len(violations) != 1 || violations[0].Name != "slow" {
		t.Fatalf("violations = %+v, want exactly slow", violations)
	}
	if violations[0].Error() == "" {
		t.Fatal("empty violation message")
	}
}
