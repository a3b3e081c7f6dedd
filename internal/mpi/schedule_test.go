package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// phantomOutcome is everything of a run that the schedule evaluator must
// reproduce bit for bit from the message path.
type phantomOutcome struct {
	exits   [][]float64    // per rank: clock after each collective
	draws   []uint64       // per rank: the next draw of its random stream
	records [][]CallRecord // per rank: every traced call
	metrics map[string]obs.Metric
}

// recordTracer keeps every rank's CallRecords; each rank appends only to
// its own slice.
type recordTracer struct{ calls [][]CallRecord }

func (t *recordTracer) Call(rank int, rec CallRecord)                     { t.calls[rank] = append(t.calls[rank], rec) }
func (t *recordTracer) Advance(rank int, kind string, start, dur float64) {}
func (t *recordTracer) Region(rank int, name string, at float64)          {}

// runPhantoms drives every phantom collective at every size through body
// (the message or the schedule path), on the world communicator and,
// with split, on a reordered Split of it too.
func runPhantoms(t *testing.T, p *platform.Platform, np int, split bool, seed uint64,
	body func(c *Comm, k collKind, n int)) phantomOutcome {
	t.Helper()
	kinds := []collKind{collBarrier, collAllreduce, collAllgather, collAlltoall}
	sizes := []int{0, 4, 8, 4096, 100 << 10}
	return runPhantomCalls(t, p, np, split, seed, len(kinds)*len(sizes), func(cc *Comm, i int) {
		k, n := kinds[i/len(sizes)], sizes[i%len(sizes)]
		cc.collective(k.String(), n, func() { body(cc, k, n) })
	})
}

// runPhantomCalls makes calls calls of call on every rank, on the world
// communicator and, with split, on a reordered Split of it too, and
// collects what the two evaluation paths must agree on. Entry skew and
// solo phases come from a test-owned stream, so both paths see
// identical programs.
func runPhantomCalls(t *testing.T, p *platform.Platform, np int, split bool, seed uint64,
	calls int, call func(cc *Comm, i int)) phantomOutcome {
	t.Helper()
	reg := obs.NewRegistry()
	tr := &recordTracer{calls: make([][]CallRecord, np)}
	out := phantomOutcome{exits: make([][]float64, np), draws: make([]uint64, np), records: tr.calls}
	_, err := RunOn(p, np, func(c *Comm) error {
		skew := sim.NewRNG(seed).Derive(uint64(c.Rank()))
		comms := []*Comm{c}
		if split {
			comms = append(comms, c.Split(c.Rank()%3, -c.Rank()))
		}
		for _, cc := range comms {
			for i := 0; i < calls; i++ {
				c.ComputeSeconds(skew.Float64() * 1e-4)
				c.SetSolo(skew.Intn(4) == 0)
				call(cc, i)
				out.exits[c.Rank()] = append(out.exits[c.Rank()], c.Clock())
			}
		}
		c.SetSolo(false)
		out.draws[c.Rank()] = c.RNG().Uint64()
		return nil
	}, WithTracer(tr), WithMetrics(reg), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	out.metrics = reg.Snapshot(false)
	return out
}

// samePhantomOutcome fails t unless the schedule path's outcome got
// equals the message path's want, rank by rank.
func samePhantomOutcome(t *testing.T, np int, got, want phantomOutcome) {
	t.Helper()
	for r := 0; r < np; r++ {
		if !reflect.DeepEqual(got.exits[r], want.exits[r]) {
			t.Errorf("rank %d exit clocks:\n got %v\nwant %v", r, got.exits[r], want.exits[r])
		}
		if got.draws[r] != want.draws[r] {
			t.Errorf("rank %d next draw: got %d, want %d", r, got.draws[r], want.draws[r])
		}
		if !reflect.DeepEqual(got.records[r], want.records[r]) {
			t.Errorf("rank %d call records:\n got %+v\nwant %+v", r, got.records[r], want.records[r])
		}
	}
	if np > 1 && want.metrics["mpi_sends_total"].Value == 0 {
		t.Fatal("the message path sent nothing")
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Errorf("stable metrics:\n got %+v\nwant %+v", got.metrics, want.metrics)
	}
}

// TestPhantomScheduleMatchesMessages is the equivalence property behind
// evaluating fault-free phantom collectives at a rendezvous: for any
// communicator size, platform, entry skew, solo mix and message size,
// on world and Split communicators, the schedule path reproduces the
// message path's exit clocks, random streams, CallRecords and stable
// metrics exactly.
func TestPhantomScheduleMatchesMessages(t *testing.T) {
	plats := []*platform.Platform{platform.Vayu(), platform.DCC(), platform.EC2()}
	nps := []int{1, 2, 3, 5, 7, 8, 16, 31, 32, 48, 64}
	if testing.Short() {
		nps = []int{1, 3, 8, 31}
	}
	for i, p := range plats {
		for j, np := range nps {
			for _, split := range []bool{false, true} {
				p, np, split, seed := p, np, split, uint64(100*i+j)
				t.Run(fmt.Sprintf("%s/np%d/split=%v", p.Name, np, split), func(t *testing.T) {
					want := runPhantoms(t, p, np, split, seed, (*Comm).phantomMessages)
					got := runPhantoms(t, p, np, split, seed, func(c *Comm, k collKind, n int) {
						c.rendezvous(slotRank{kind: k, n: n})
					})
					samePhantomOutcome(t, np, got, want)
				})
			}
		}
	}
}

// TestRingExchangeScheduleMatchesMessages is the same property for the
// ring halo: RingExchangeN on a fault-free world reproduces its
// SendN/RecvN message program exactly, at pair counts that make rank+k
// and rank-k coincide (2k a multiple of the size) and wrap onto the
// rank itself (k a multiple of it), with every rank sending its own
// message size.
func TestRingExchangeScheduleMatchesMessages(t *testing.T) {
	plats := []*platform.Platform{platform.Vayu(), platform.DCC(), platform.EC2()}
	nps := []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 48}
	if testing.Short() {
		nps = []int{1, 2, 4, 7, 32}
	}
	sizes := []int{0, 4, 4096, 100 << 10, -1} // -1: a rank-dependent size
	for i, p := range plats {
		for j, np := range nps {
			pairs := []int{0, 1, 2, 3, np / 2, np}
			for _, split := range []bool{false, true} {
				p, np, split, seed := p, np, split, uint64(1000+100*i+j)
				run := func(t *testing.T, exchange func(cc *Comm, n, pairs int)) phantomOutcome {
					return runPhantomCalls(t, p, np, split, seed, len(pairs)*len(sizes), func(cc *Comm, i int) {
						n := sizes[i%len(sizes)]
						if n < 0 {
							n = 24 * (cc.Rank() + 1)
						}
						exchange(cc, n, pairs[i/len(sizes)])
					})
				}
				t.Run(fmt.Sprintf("%s/np%d/split=%v", p.Name, np, split), func(t *testing.T) {
					want := run(t, func(cc *Comm, n, pairs int) { cc.ringMessages(n, pairs) })
					got := run(t, func(cc *Comm, n, pairs int) { cc.RingExchangeN(n, pairs) })
					samePhantomOutcome(t, np, got, want)
				})
			}
		}
	}
}

// TestRingExchangeProgramLeasesNoMessages is the deterministic gate
// behind perfbench's mpi/ring-exchange member, whose allocation and
// ns/op budgets the message path fits too: on a fault-free 32-rank
// world, Chaste's KSp loop (a compute charge, the ring halo with three
// neighbours on each side and two 4-byte all-reduces) must meter every
// modelled send without leasing a single pooled message envelope.
func TestRingExchangeProgramLeasesNoMessages(t *testing.T) {
	const np, iters, pairs = 32, 32, 3
	reg := obs.NewRegistry()
	_, err := RunOn(platform.Vayu(), np, func(c *Comm) error {
		for i := 0; i < iters; i++ {
			c.Compute(cpumodel.Work{Flops: 1e6, Bytes: 1e6})
			c.RingExchangeN(12<<10, pairs)
			c.AllreduceN(4)
			c.AllreduceN(4)
		}
		return nil
	}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(true)
	// Per iteration every rank sends one message each way at each ring
	// distance and log2(np) = 5 per recursive-doubling all-reduce.
	if got, want := snap["mpi_sends_total"].Value, int64(np*iters*(2*pairs+2*5)); got != want {
		t.Errorf("mpi_sends_total = %d, want %d modelled sends", got, want)
	}
	if got := snap["mpi_pool_leases_total"].Value; got != 0 {
		t.Errorf("mpi_pool_leases_total = %d, want 0: the halo or the all-reduces ran as messages", got)
	}
}
