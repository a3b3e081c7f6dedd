package mpi

import (
	"fmt"
	"reflect"
	"testing"

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
// with split, on a reordered Split of it too. Entry skew and solo phases
// come from a test-owned stream, so both paths see identical programs.
func runPhantoms(t *testing.T, p *platform.Platform, np int, split bool, seed uint64,
	body func(c *Comm, k collKind, n int)) phantomOutcome {
	t.Helper()
	reg := obs.NewRegistry()
	tr := &recordTracer{calls: make([][]CallRecord, np)}
	out := phantomOutcome{exits: make([][]float64, np), draws: make([]uint64, np), records: tr.calls}
	kinds := []collKind{collBarrier, collAllreduce, collAllgather, collAlltoall}
	sizes := []int{0, 4, 8, 4096, 100 << 10}
	_, err := RunOn(p, np, func(c *Comm) error {
		skew := sim.NewRNG(seed).Derive(uint64(c.Rank()))
		comms := []*Comm{c}
		if split {
			comms = append(comms, c.Split(c.Rank()%3, -c.Rank()))
		}
		for _, cc := range comms {
			for _, k := range kinds {
				for _, n := range sizes {
					c.ComputeSeconds(skew.Float64() * 1e-4)
					c.SetSolo(skew.Intn(4) == 0)
					cc.collective(k.String(), n, func() { body(cc, k, n) })
					out.exits[c.Rank()] = append(out.exits[c.Rank()], c.Clock())
				}
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
					got := runPhantoms(t, p, np, split, seed, (*Comm).phantomSchedule)
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
				})
			}
		}
	}
}
