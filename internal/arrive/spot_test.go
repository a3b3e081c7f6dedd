package arrive

import (
	"testing"
	"testing/quick"
)

func TestSpotPriceDeterministic(t *testing.T) {
	a, b := NewSpotMarket(7), NewSpotMarket(7)
	for h := 0; h < 200; h += 17 {
		if a.Price(h) != b.Price(h) {
			t.Fatalf("price path not deterministic at hour %d", h)
		}
	}
	c := NewSpotMarket(8)
	same := 0
	for h := 0; h < 100; h++ {
		if a.Price(h) == c.Price(h) {
			same++
		}
	}
	if same > 50 {
		t.Fatal("different seeds should give different paths")
	}
}

func TestSpotPriceBounds(t *testing.T) {
	m := NewSpotMarket(3)
	prop := func(hRaw uint16) bool {
		p := m.Price(int(hRaw % 2000))
		return p >= m.Floor && p <= m.OnDemand*m.SpikeMul*1.3+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpotPriceUsuallyBelowOnDemand(t *testing.T) {
	m := NewSpotMarket(11)
	below := 0
	const n = 500
	for h := 0; h < n; h++ {
		if m.Price(h) < m.OnDemand {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.85 {
		t.Fatalf("spot below on-demand only %.0f%% of hours, want mostly", frac*100)
	}
}

func TestInterruptionPlanMatchesPricePath(t *testing.T) {
	m := NewSpotMarket(3)
	const bid, horizon = 0.5, 200.0
	plan, err := m.InterruptionPlan(bid, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; float64(h) < horizon; h++ {
		outbid := m.Price(h) > bid
		if got := plan.OutageAt(float64(h)); got != outbid {
			t.Fatalf("hour %d: outage=%v but price %g vs bid %g", h, got, m.Price(h), bid)
		}
	}
	// Every outage window opens with its preemption.
	if len(plan.Outages) == 0 {
		t.Skip("seed produced no outages below this bid")
	}
	if len(plan.Preemptions) != len(plan.Outages) {
		t.Fatalf("%d preemptions for %d outages", len(plan.Preemptions), len(plan.Outages))
	}
	for i, o := range plan.Outages {
		if plan.Preemptions[i].At != o.Start {
			t.Fatalf("outage %d starts at %g but preemption at %g", i, o.Start, plan.Preemptions[i].At)
		}
	}
}
