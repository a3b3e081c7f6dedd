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
	budgeted := 0
	for _, b := range Suite() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Op == nil {
			t.Errorf("benchmark %q has no Op", b.Name)
		}
		if b.AllocBudget > 0 {
			budgeted++
		}
	}
	if budgeted < 4 {
		t.Errorf("only %d budgeted benchmarks, want the 4 message-plane gates", budgeted)
	}
}
