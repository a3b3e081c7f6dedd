// Package fault is the deterministic fault-injection plane for the
// simulated stack. A Plan is a pre-computed schedule of three event
// classes, derived from the same splitmix64 stream discipline as the
// platform jitter (seeded by platform/experiment/rank labels, so the
// same inputs always yield the same faults):
//
//   - stragglers: transient per-rank CPU slowdown windows, applied by the
//     runtime through cpumodel.StretchSeconds;
//   - link degradation: windows of elevated latency / reduced bandwidth,
//     applied to inter-node transfers through netmodel.Link.Degraded;
//   - node preemption: a whole node's ranks die at a virtual time
//     (EC2 spot outbidding, DCC VM resets), surfaced by the mpi runtime
//     as a typed rank-failure error;
//   - outages: resource-unavailable windows (the hour-granularity spot
//     market view); each outage begins with the matching preemption.
//
// Because a Plan is data, the MPI runtime, the applications and the
// arrive spot model all consume the same failure schedule and can never
// disagree about when a resource was lost.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpumodel"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Preemption kills every rank placed on Node at virtual time At.
type Preemption struct {
	Node int
	At   float64 // virtual seconds
}

// Outage is a window during which the preempted resource stays
// unavailable (spot price above bid, VM not yet rescheduled).
type Outage struct {
	Start, End float64 // virtual units (seconds, or hours for spot plans)
}

// Plan is a fully materialised fault schedule. The zero value (and nil)
// is a fault-free plan. All slices are sorted by start time; outages
// are also sorted by end (Validate).
type Plan struct {
	Stragglers   map[int][]cpumodel.Throttle // per-rank slowdown windows
	Degradations []netmodel.Degradation      // inter-node link windows
	Preemptions  []Preemption
	Outages      []Outage
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Stragglers) == 0 && len(p.Degradations) == 0 &&
		len(p.Preemptions) == 0 && len(p.Outages) == 0)
}

// Validate checks the plan's internal consistency: ordered windows with
// positive extent, slowdown/degradation factors >= 1 (a factor below one
// would be a speed-up and could violate virtual-time causality), and
// non-negative event times. Outage windows must be sorted by start and
// by end: a window may overlap the one before it but not end before it
// (nested inside it), which is what lets the outage lookups
// binary-search.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	ranks := make([]int, 0, len(p.Stragglers))
	for rank := range p.Stragglers {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		for _, w := range p.Stragglers[rank] {
			if w.End <= w.Start || w.Start < 0 {
				return fmt.Errorf("fault: rank %d straggler window [%g,%g) invalid", rank, w.Start, w.End)
			}
			if w.Factor < 1 {
				return fmt.Errorf("fault: rank %d straggler factor %g < 1", rank, w.Factor)
			}
		}
	}
	for _, d := range p.Degradations {
		if d.End <= d.Start || d.Start < 0 {
			return fmt.Errorf("fault: degradation window [%g,%g) invalid", d.Start, d.End)
		}
		if d.LatencyFactor < 1 || d.BandwidthFactor < 1 {
			return fmt.Errorf("fault: degradation factors (%g,%g) must be >= 1", d.LatencyFactor, d.BandwidthFactor)
		}
	}
	for _, e := range p.Preemptions {
		if e.At < 0 || e.Node < 0 {
			return fmt.Errorf("fault: preemption {node %d, at %g} invalid", e.Node, e.At)
		}
	}
	for i, o := range p.Outages {
		if !(o.End > o.Start) || !(o.Start >= 0) {
			return fmt.Errorf("fault: outage [%g,%g) invalid", o.Start, o.End)
		}
		if i > 0 {
			if prev := p.Outages[i-1]; o.Start < prev.Start || o.End < prev.End {
				return fmt.Errorf("fault: outage %d [%g,%g) out of order after [%g,%g): outages must be sorted by start and by end",
					i, o.Start, o.End, prev.Start, prev.End)
			}
		}
	}
	return nil
}

// ThrottlesFor returns rank's slowdown windows (nil when unaffected).
func (p *Plan) ThrottlesFor(rank int) []cpumodel.Throttle {
	if p == nil {
		return nil
	}
	return p.Stragglers[rank]
}

// DegradationAt returns the combined latency and bandwidth factors of
// every degradation window active at time t (1,1 when none).
func (p *Plan) DegradationAt(t float64) (latency, bandwidth float64) {
	latency, bandwidth = 1, 1
	if p == nil {
		return
	}
	for _, d := range p.Degradations {
		if d.Start > t {
			break // sorted by start
		}
		if t < d.End {
			latency *= d.LatencyFactor
			bandwidth *= d.BandwidthFactor
		}
	}
	return
}

// NodeDeath returns the first preemption of node strictly after time
// `after`, so a restarted incarnation does not re-fire an already
// consumed failure.
func (p *Plan) NodeDeath(node int, after float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	for _, e := range p.Preemptions {
		if e.Node == node && e.At > after {
			return e.At, true
		}
	}
	return 0, false
}

// OutageAt reports whether the resource is unavailable at time t.
func (p *Plan) OutageAt(t float64) bool {
	_, ok := p.OutageEnd(t)
	return ok
}

// OutageEnd returns the end of the first outage window, in plan order,
// that covers t (Start <= t < End). Outages are sorted by start and by
// end, so the windows starting at or before t are a prefix of the list
// and, within it, the ones ending after t are a suffix: two binary
// searches find the window a scan from the front would.
func (p *Plan) OutageEnd(t float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	os := p.Outages
	k := sort.Search(len(os), func(i int) bool { return os[i].Start > t })
	j := sort.Search(k, func(i int) bool { return os[i].End > t })
	if j == k {
		return 0, false
	}
	return os[j].End, true
}

// NextOutage returns the start of the first outage window that starts
// strictly after t.
func (p *Plan) NextOutage(t float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	os := p.Outages
	k := sort.Search(len(os), func(i int) bool { return os[i].Start > t })
	if k == len(os) {
		return 0, false
	}
	return os[k].Start, true
}

// Spec parameterises plan generation. The zero value generates an empty
// (fault-free) plan. All times are virtual seconds.
type Spec struct {
	// MTBF is the mean time between node preemptions across the whole
	// machine (exponential inter-arrival, uniformly random victim node).
	// Zero disables preemptions.
	MTBF float64
	// Horizon bounds the schedule; events beyond it are not generated.
	// Zero picks a default long enough for any bounded run (200*MTBF,
	// at least one virtual hour).
	Horizon float64

	// StragglerRate is the expected number of slowdown windows per rank
	// per virtual hour. Zero disables stragglers.
	StragglerRate float64
	// StragglerSlowdown is the mean compute slowdown factor inside a
	// window (default 2.0; generated factors are 1 + Exp(mean-1)).
	StragglerSlowdown float64
	// StragglerDuration is the mean window length in seconds (default 5).
	StragglerDuration float64

	// DegradationRate is the expected number of link-degradation windows
	// per virtual hour. Zero disables link degradation.
	DegradationRate float64
	// DegradationLatency multiplies inter-node latency during a window
	// (default 8 — vSwitch stalls observed as latency fluctuation).
	DegradationLatency float64
	// DegradationBandwidth divides inter-node bandwidth during a window
	// (default 4).
	DegradationBandwidth float64
	// DegradationDuration is the mean window length in seconds (default 10).
	DegradationDuration float64
}

// maxExpectedEvents caps the number of events a spec may expect over
// its horizon, per event class (straggler windows per rank): Generate
// materialises the whole plan, so a spec expecting more would exhaust
// memory building it instead of failing.
const maxExpectedEvents = 1e6

// Validate rejects malformed specs (DESIGN §5 misuse-error convention):
// negative or non-finite values, factors below 1, and specs expecting
// more than maxExpectedEvents events of one class. Errors name the
// -faults key of the offending value.
func (s Spec) Validate() error {
	fields := []struct {
		key string
		v   float64
	}{
		{"mtbf", s.MTBF}, {"horizon", s.Horizon},
		{"straggle", s.StragglerRate}, {"slow", s.StragglerSlowdown}, {"StragglerDuration", s.StragglerDuration},
		{"degrade", s.DegradationRate}, {"dlat", s.DegradationLatency}, {"dbw", s.DegradationBandwidth},
		{"DegradationDuration", s.DegradationDuration},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: %s must be finite, got %g", f.key, f.v)
		}
	}
	if s.MTBF < 0 || s.Horizon < 0 || s.StragglerRate < 0 || s.DegradationRate < 0 {
		return fmt.Errorf("fault: spec rates and horizon must be non-negative: %+v", s)
	}
	if s.StragglerSlowdown != 0 && s.StragglerSlowdown < 1 {
		return fmt.Errorf("fault: straggler slowdown %g < 1", s.StragglerSlowdown)
	}
	if s.DegradationLatency != 0 && s.DegradationLatency < 1 {
		return fmt.Errorf("fault: degradation latency factor %g < 1", s.DegradationLatency)
	}
	if s.DegradationBandwidth != 0 && s.DegradationBandwidth < 1 {
		return fmt.Errorf("fault: degradation bandwidth factor %g < 1", s.DegradationBandwidth)
	}
	if s.StragglerDuration < 0 || s.DegradationDuration < 0 {
		return fmt.Errorf("fault: durations must be non-negative")
	}
	h := s.horizon()
	expected := []struct {
		key, events string
		v, n        float64
	}{
		{"mtbf", "preemptions", s.MTBF, h / s.MTBF},
		{"straggle", "straggler windows per rank", s.StragglerRate, s.StragglerRate * h / 3600},
		{"degrade", "link-degradation windows", s.DegradationRate, s.DegradationRate * h / 3600},
	}
	for _, e := range expected {
		if e.v > 0 && !(e.n <= maxExpectedEvents) {
			return fmt.Errorf("fault: %s=%g expects %.3g %s over a %g s horizon; at most %g are allowed",
				e.key, e.v, e.n, e.events, h, maxExpectedEvents)
		}
	}
	return nil
}

func (s Spec) horizon() float64 {
	if s.Horizon > 0 {
		return s.Horizon
	}
	h := 3600.0
	if 200*s.MTBF > h {
		h = 200 * s.MTBF
	}
	return h
}

// Generate materialises a Plan for `ranks` ranks on `nodes` nodes. The
// schedule is a pure function of (spec, platform, experiment, seed): the
// base stream is derived from the platform and experiment labels exactly
// like the jitter streams, then split per event class and per rank.
func Generate(s Spec, platformName, experiment string, ranks, nodes int, seed uint64) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 || nodes <= 0 {
		return nil, fmt.Errorf("fault: need positive ranks (%d) and nodes (%d)", ranks, nodes)
	}
	horizon := s.horizon()
	// Validate bounds straggler windows per rank; the class's total
	// grows with the rank count.
	if n := s.StragglerRate * horizon / 3600 * float64(ranks); n > maxExpectedEvents {
		return nil, fmt.Errorf("fault: straggle=%g expects %.3g straggler windows over %d ranks and a %g s horizon; at most %g are allowed",
			s.StragglerRate, n, ranks, horizon, maxExpectedEvents)
	}
	base := sim.NewRNG(seed).Derive(sim.SeedString(platformName), sim.SeedString(experiment))
	p := &Plan{}

	if s.MTBF > 0 {
		r := base.Derive(0xFA11)
		for t := r.Exponential(s.MTBF); t < horizon; t += r.Exponential(s.MTBF) {
			p.Preemptions = append(p.Preemptions, Preemption{Node: r.Intn(nodes), At: t})
		}
	}

	if s.StragglerRate > 0 {
		mean := 3600 / s.StragglerRate // seconds between windows
		slow := s.StragglerSlowdown
		if slow == 0 {
			slow = 2
		}
		dur := s.StragglerDuration
		if dur == 0 {
			dur = 5
		}
		p.Stragglers = map[int][]cpumodel.Throttle{}
		for rank := 0; rank < ranks; rank++ {
			r := base.Derive(0x57A6, uint64(rank)+1)
			var ws []cpumodel.Throttle
			for t := r.Exponential(mean); t < horizon; t += r.Exponential(mean) {
				w := cpumodel.Throttle{
					Start:  t,
					End:    t + r.Exponential(dur),
					Factor: 1 + r.Exponential(slow-1),
				}
				// Keep windows disjoint: a new window starting inside the
				// previous one is pushed past its end.
				if n := len(ws); n > 0 && w.Start < ws[n-1].End {
					span := w.End - w.Start
					w.Start = ws[n-1].End
					w.End = w.Start + span
				}
				ws = append(ws, w)
				t = w.Start
			}
			if len(ws) > 0 {
				p.Stragglers[rank] = ws
			}
		}
	}

	if s.DegradationRate > 0 {
		mean := 3600 / s.DegradationRate
		lat := s.DegradationLatency
		if lat == 0 {
			lat = 8
		}
		bw := s.DegradationBandwidth
		if bw == 0 {
			bw = 4
		}
		dur := s.DegradationDuration
		if dur == 0 {
			dur = 10
		}
		r := base.Derive(0xDE64)
		for t := r.Exponential(mean); t < horizon; t += r.Exponential(mean) {
			p.Degradations = append(p.Degradations, netmodel.Degradation{
				Start: t, End: t + r.Exponential(dur),
				LatencyFactor: lat, BandwidthFactor: bw,
			})
		}
	}

	sort.Slice(p.Preemptions, func(i, j int) bool { return p.Preemptions[i].At < p.Preemptions[j].At })
	sort.Slice(p.Degradations, func(i, j int) bool { return p.Degradations[i].Start < p.Degradations[j].Start })
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
