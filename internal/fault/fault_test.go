package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpumodel"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func fullSpec() Spec {
	return Spec{
		MTBF:            900,
		StragglerRate:   30,
		DegradationRate: 20,
		Horizon:         7200,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(fullSpec(), "vayu", "e12", 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(fullSpec(), "vayu", "e12", 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs must yield the same plan")
	}
	if a.Empty() {
		t.Fatal("a plan with all rates set should contain events")
	}
	c, err := Generate(fullSpec(), "vayu", "e12", 16, 4, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should yield different plans")
	}
	d, err := Generate(fullSpec(), "dcc", "e12", 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, d) {
		t.Fatal("different platform labels should yield different plans")
	}
}

func TestGeneratedPlansAreValidAndSorted(t *testing.T) {
	prop := func(seed uint64) bool {
		p, err := Generate(fullSpec(), "ec2", "prop", 8, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
		for i := 1; i < len(p.Preemptions); i++ {
			if p.Preemptions[i].At < p.Preemptions[i-1].At {
				return false
			}
		}
		for i := 1; i < len(p.Degradations); i++ {
			if p.Degradations[i].Start < p.Degradations[i-1].Start {
				return false
			}
		}
		for _, ws := range p.Stragglers {
			for i := 1; i < len(ws); i++ {
				if ws[i].Start < ws[i-1].End {
					return false // windows must be disjoint
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Spec{MTBF: -1}, "v", "e", 4, 2, 1); err == nil {
		t.Error("negative MTBF should be rejected")
	}
	if _, err := Generate(Spec{}, "v", "e", 0, 2, 1); err == nil {
		t.Error("zero ranks should be rejected")
	}
	if _, err := Generate(Spec{StragglerSlowdown: 0.5, StragglerRate: 1}, "v", "e", 4, 2, 1); err == nil {
		t.Error("slowdown < 1 should be rejected")
	}
	// 5*10^5 windows per rank pass Validate; 64 ranks of them exceed the
	// class's cap.
	if _, err := Generate(Spec{StragglerRate: 5e5, Horizon: 3600}, "v", "e", 64, 8, 1); err == nil || !strings.Contains(err.Error(), "straggle=") {
		t.Errorf("straggler windows over the cap across ranks: %v, want an error naming straggle", err)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []Plan{
		{Stragglers: map[int][]cpumodel.Throttle{0: {{Start: 5, End: 3, Factor: 2}}}},
		{Stragglers: map[int][]cpumodel.Throttle{0: {{Start: 0, End: 1, Factor: 0.5}}}},
		{Degradations: []netmodel.Degradation{{Start: 1, End: 1, LatencyFactor: 2, BandwidthFactor: 2}}},
		{Degradations: []netmodel.Degradation{{Start: 0, End: 1, LatencyFactor: 0.9, BandwidthFactor: 2}}},
		{Preemptions: []Preemption{{Node: -1, At: 3}}},
		{Preemptions: []Preemption{{Node: 0, At: -3}}},
		{Outages: []Outage{{Start: 2, End: 2}}},
		{Outages: []Outage{{Start: math.NaN(), End: 2}}},
		{Outages: []Outage{{Start: 5, End: 6}, {Start: 2, End: 3}}},  // unsorted by start
		{Outages: []Outage{{Start: 0, End: 10}, {Start: 2, End: 3}}}, // nested: ends first
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan must validate: %v", err)
	}
	if !nilPlan.Empty() {
		t.Error("nil plan must be empty")
	}
}

func TestDegradationAtCombinesOverlaps(t *testing.T) {
	p := &Plan{Degradations: []netmodel.Degradation{
		{Start: 0, End: 10, LatencyFactor: 2, BandwidthFactor: 3},
		{Start: 5, End: 15, LatencyFactor: 4, BandwidthFactor: 5},
	}}
	if l, b := p.DegradationAt(7); l != 8 || b != 15 {
		t.Errorf("overlap at t=7: got (%g,%g), want (8,15)", l, b)
	}
	if l, b := p.DegradationAt(12); l != 4 || b != 5 {
		t.Errorf("single window at t=12: got (%g,%g), want (4,5)", l, b)
	}
	if l, b := p.DegradationAt(20); l != 1 || b != 1 {
		t.Errorf("outside windows: got (%g,%g), want (1,1)", l, b)
	}
}

func TestNodeDeathSkipsConsumedEvents(t *testing.T) {
	p := &Plan{Preemptions: []Preemption{
		{Node: 2, At: 10}, {Node: 1, At: 20}, {Node: 2, At: 30},
	}}
	if at, ok := p.NodeDeath(2, 0); !ok || at != 10 {
		t.Errorf("first death of node 2: got (%g,%v)", at, ok)
	}
	if at, ok := p.NodeDeath(2, 10); !ok || at != 30 {
		t.Errorf("death strictly after 10: got (%g,%v)", at, ok)
	}
	if _, ok := p.NodeDeath(2, 30); ok {
		t.Error("no death after 30")
	}
	if _, ok := p.NodeDeath(7, 0); ok {
		t.Error("node 7 never dies")
	}
}

func TestOutageAt(t *testing.T) {
	p := &Plan{Outages: []Outage{{Start: 2, End: 4}, {Start: 8, End: 9}}}
	for _, c := range []struct {
		t    float64
		want bool
	}{{1.9, false}, {2, true}, {3.99, true}, {4, false}, {8.5, true}, {9, false}} {
		if got := p.OutageAt(c.t); got != c.want {
			t.Errorf("OutageAt(%g) = %v, want %v", c.t, got, c.want)
		}
	}
}

// linearOutage is the outage lookup as a scan from the front of the
// list: the first window (in plan order) covering t, and the first
// window starting strictly after t.
func linearOutage(os []Outage, t float64) (end float64, covered bool, next float64, later bool) {
	for _, o := range os {
		if o.Start > t {
			break
		}
		if t < o.End {
			end, covered = o.End, true
			break
		}
	}
	for _, o := range os {
		if o.Start > t {
			return end, covered, o.Start, true
		}
	}
	return end, covered, 0, false
}

// TestOutageLookupsMatchScan: OutageAt, OutageEnd and NextOutage
// binary-search, and must answer exactly as a scan from the front for
// every outage list Validate accepts: empty lists, touching windows,
// overlapping ones and equal starts, probed at every window's start and
// end and one ulp either side, and between windows.
func TestOutageLookupsMatchScan(t *testing.T) {
	var touching, overlapping int
	prop := func(seed uint64, n8 uint8) bool {
		r := sim.NewRNG(seed)
		var os []Outage
		start, end := 0.0, 0.0
		for i := 0; i < int(n8%12); i++ {
			switch r.Intn(4) {
			case 0: // touches the previous window's end
				start = end
			case 1: // overlaps it (or shares its start)
				start += float64(r.Intn(3))
				if start >= end {
					start = end
				}
			default: // leaves a gap
				start = end + float64(1+r.Intn(5))
			}
			end = max(end, start+float64(1+r.Intn(6)))
			os = append(os, Outage{Start: start, End: end})
		}
		p := &Plan{Outages: os}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated list rejected: %v: %+v", err, os)
		}
		for i := 1; i < len(os); i++ {
			if os[i].Start == os[i-1].End {
				touching++
			}
			if os[i].Start < os[i-1].End {
				overlapping++
			}
		}
		probes := []float64{-1, 0, 1e9}
		for _, o := range os {
			for _, x := range []float64{o.Start, o.End} {
				probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)), x+0.5)
			}
		}
		for _, x := range probes {
			end, covered, next, later := linearOutage(os, x)
			gotEnd, gotCovered := p.OutageEnd(x)
			gotNext, gotLater := p.NextOutage(x)
			if gotEnd != end || gotCovered != covered || gotNext != next || gotLater != later || p.OutageAt(x) != covered {
				t.Errorf("t=%v over %+v: OutageEnd (%v,%v) NextOutage (%v,%v) OutageAt %v; scan gives (%v,%v) (%v,%v)",
					x, os, gotEnd, gotCovered, gotNext, gotLater, p.OutageAt(x), end, covered, next, later)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if touching == 0 || overlapping == 0 {
		t.Fatalf("lists covered %d touching and %d overlapping window pairs; want both", touching, overlapping)
	}
	var nilPlan *Plan
	if _, ok := nilPlan.OutageEnd(0); ok || nilPlan.OutageAt(0) {
		t.Error("nil plan has an outage")
	}
	if _, ok := nilPlan.NextOutage(0); ok {
		t.Error("nil plan has a next outage")
	}
}

func TestParseParamsRoundTrip(t *testing.T) {
	for _, s := range []string{
		"",
		"mtbf=600",
		"ckpt=3,mtbf=600,seed=7",
		"dbw=4,degrade=12,dlat=8,horizon=1800,mtbf=600,slow=2.5,straggle=6",
	} {
		p, err := ParseParams(s)
		if err != nil {
			t.Fatalf("ParseParams(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("canonical round trip of %q: got %q", s, got)
		}
		p2, err := ParseParams(p.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", p.String(), err)
		}
		if p2 != p {
			t.Errorf("reparse of %q changed params: %+v vs %+v", s, p, p2)
		}
	}
}

func TestParseParamsErrors(t *testing.T) {
	for _, s := range []string{
		"mtbf",      // no value
		"mtbf=abc",  // not a number
		"bogus=1",   // unknown key
		"ckpt=-1",   // negative steps
		"ckpt=1.5",  // not an integer
		"slow=0.5",  // spec validation: factor < 1
		"mtbf=-600", // negative rate
		"seed=-1",   // negative seed
		"dlat=0.2,mtbf=60",
	} {
		if _, err := ParseParams(s); err == nil {
			t.Errorf("ParseParams(%q) should fail", s)
		}
	}
}

// TestParseParamsRejectsUnboundedPlans: values that are not finite, or
// that would make Generate materialise more than maxExpectedEvents
// events of one class (each of these exhausted memory before it was
// capped), are rejected with an error naming the -faults key.
func TestParseParamsRejectsUnboundedPlans(t *testing.T) {
	for _, c := range []struct{ in, key string }{
		{"horizon=+Inf,mtbf=600", "horizon"},
		{"mtbf=NaN", "mtbf"},
		{"dlat=NaN,degrade=12", "dlat"},
		{"slow=Inf,straggle=1", "slow"},
		{"mtbf=1e-6", "mtbf="},
		{"mtbf=1e-300", "mtbf="},
		{"degrade=1e12", "degrade="},
		{"straggle=1e7", "straggle="},
		{"horizon=1e12,mtbf=600", "mtbf="},
	} {
		_, err := ParseParams(c.in)
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("ParseParams(%q) = %v; want an error naming %q", c.in, err, c.key)
		}
	}
	// The cap is far above what a bounded run uses: a preemption a
	// minute over the default horizon, or stragglers every second.
	for _, s := range []string{"mtbf=60", "straggle=3600,horizon=3600", "degrade=3600,mtbf=600"} {
		if _, err := ParseParams(s); err != nil {
			t.Errorf("ParseParams(%q): %v", s, err)
		}
	}
}

func TestParamsEnabled(t *testing.T) {
	if (Params{}).Enabled() {
		t.Error("zero params must be disabled")
	}
	if (Params{CheckpointEvery: 3}).Enabled() {
		t.Error("checkpointing alone injects no fault")
	}
	if !(Params{Spec: Spec{MTBF: 60}}).Enabled() {
		t.Error("mtbf enables faults")
	}
}

func TestProgressQuantised(t *testing.T) {
	p := Progress{Total: 10, Quantum: 0.5}
	p.Advance(1.3)
	p.Checkpoint()
	if p.Durable != 1.0 {
		t.Errorf("quantised checkpoint: durable %g, want 1.0", p.Durable)
	}
	if lost := p.Interrupt(); math.Abs(lost-0.3) > 1e-12 {
		t.Errorf("interrupt lost %g, want 0.3", lost)
	}
	if p.Done != 1.0 {
		t.Errorf("rollback to %g, want 1.0", p.Done)
	}

	// Quantum 0: checkpoints are explicit and exact.
	q := Progress{Total: 2}
	q.Advance(1.3)
	q.Checkpoint()
	q.Advance(0.4)
	if lost := q.Interrupt(); math.Abs(lost-0.4) > 1e-12 {
		t.Errorf("exact checkpoint: lost %g, want 0.4", lost)
	}
}

func TestProgressClampsAndCompletes(t *testing.T) {
	p := Progress{Total: 3, Quantum: 1}
	if step := p.Advance(5); step != 3 {
		t.Errorf("advance past total returned %g, want 3", step)
	}
	if !p.Completed() || p.Remaining() != 0 {
		t.Errorf("progress should be complete: %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance must panic")
		}
	}()
	p.Advance(-1)
}

// TestProgressInvariants drives Progress with a random op sequence and
// checks 0 <= Durable <= Done <= Total throughout, that checkpoints never
// regress and that an interrupt loses exactly Done-Durable.
func TestProgressInvariants(t *testing.T) {
	prop := func(total8 uint8, quantum8 uint8, ops []uint8) bool {
		total := 1 + float64(total8)/8
		quantum := float64(quantum8) / 64 // may be 0
		p := Progress{Total: total, Quantum: quantum}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				step := p.Advance(float64(op) / 32)
				if step < 0 || step > float64(op)/32+1e-12 {
					return false
				}
			case 1:
				before := p.Durable
				p.Checkpoint()
				if p.Durable < before {
					return false // checkpoint regressed
				}
			case 2:
				want := p.Done - p.Durable
				if lost := p.Interrupt(); math.Abs(lost-want) > 1e-12 {
					return false
				}
			}
			if p.Durable < 0 || p.Done < p.Durable-1e-12 || p.Done > p.Total+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringOmitsZeroFields(t *testing.T) {
	if s := (Params{}).String(); s != "" {
		t.Errorf("zero params render as %q, want empty", s)
	}
	s := Params{Spec: Spec{MTBF: 600}, CheckpointEvery: 3}.String()
	if strings.Contains(s, "seed") || strings.Contains(s, "straggle") {
		t.Errorf("zero fields leaked into %q", s)
	}
}
