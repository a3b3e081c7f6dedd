package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/platform"
	"repro/internal/sim"
)

// stepKind is what one step of a generated SPMD program does.
type stepKind uint8

const (
	stepCompute stepKind = iota // Compute of x flops
	stepSeconds                 // ComputeSeconds of x seconds
	stepColl                    // phantom collective coll of n bytes
	stepRing                    // RingExchangeN of n bytes (-1: rank-dependent) at pairs
	stepRegion                  // Region(regionNames[x])
	stepSolo                    // SetSolo(x != 0)
	stepClock                   // an observed Clock()
	stepRNG                     // an observed RNG() draw
	stepKinds
)

var regionNames = [...]string{"ASSEMBLE", "KSp", "OUTPUT"}

// winSizes straddle the links' 12 KiB eager limit.
var winSizes = [...]int{0, 4, 4096, 12 << 10, 12<<10 + 1}

// winStep is one step of a generated program. Every rank runs the same
// steps, each compute charge scaled by a per-rank skew.
type winStep struct {
	what  stepKind
	coll  opKind
	n     int
	pairs int
	split bool // on the reordered Split communicator, not the world
	x     float64
}

// runProgram runs prog on np ranks of p and collects what the windowed
// and the per-operation runs must agree on. exits holds every observed
// Clock() and RNG() draw of the program, then the final clock. With
// perOp, a Clock() after every step forces the rendezvous at each
// operation.
func runProgram(tb testing.TB, p *platform.Platform, np int, seed uint64, prog []winStep, perOp bool) phantomOutcome {
	tb.Helper()
	return runOutcome(tb, p, np, seed, func(c *Comm, exits *[]float64) {
		r := c.Rank()
		comms := [2]*Comm{c, c.Split(r%3, -r)}
		skew := 1 + 0.37*float64(r*7%11)/11
		for _, s := range prog {
			cc := comms[0]
			if s.split {
				cc = comms[1]
			}
			switch s.what {
			case stepCompute:
				cc.Compute(cpumodel.Work{Flops: s.x * skew, Bytes: s.x * skew / 4})
			case stepSeconds:
				cc.ComputeSeconds(s.x * skew)
			case stepColl:
				switch s.coll {
				case collBarrier:
					cc.Barrier()
				case collAllreduce:
					cc.AllreduceN(s.n)
				case collAllgather:
					cc.AllgatherN(s.n)
				default:
					cc.AlltoallN(s.n)
				}
			case stepRing:
				n := s.n
				if n < 0 {
					n = 24 * (cc.Rank() + 1)
				}
				cc.RingExchangeN(n, s.pairs)
			case stepRegion:
				cc.Region(regionNames[int(s.x)])
			case stepSolo:
				cc.SetSolo(s.x != 0)
			case stepClock:
				*exits = append(*exits, cc.Clock())
			case stepRNG:
				*exits = append(*exits, float64(cc.RNG().Uint64()>>11))
			}
			if perOp {
				c.Clock()
			}
		}
		*exits = append(*exits, c.Clock())
	})
}

// genProgram draws an n-step program for np ranks from rng. Each step
// observes (Region, SetSolo, Clock or RNG) with probability observe,
// and the program moves between the world and its Split, which observes
// too, with the same probability but at least once in 400 steps.
func genProgram(rng *sim.RNG, np, n int, observe float64) []winStep {
	prog := make([]winStep, 0, n)
	split := false
	for range n {
		if rng.Float64() < max(observe, 1.0/400) {
			split = !split
		}
		s := winStep{split: split}
		if rng.Float64() < observe {
			s.what = stepRegion + stepKind(rng.Intn(4))
		} else {
			s.what = stepKind(rng.Intn(int(stepRegion)))
		}
		fillStep(&s, np, rng.Intn(1<<16))
		prog = append(prog, s)
	}
	return prog
}

// fillStep sets step s's parameters from the bits of b.
func fillStep(s *winStep, np, b int) {
	switch s.what {
	case stepCompute:
		s.x = float64(b%256+1) * 1e4
	case stepSeconds:
		s.x = float64(b%256) * 1e-6
	case stepColl:
		s.coll = opKind(b % 4)
		s.n = winSizes[b/4%len(winSizes)]
	case stepRing:
		s.pairs = b % (np + 1)
		s.n = -1
		if i := b / (np + 1) % (len(winSizes) + 1); i < len(winSizes) {
			s.n = winSizes[i]
		}
	case stepRegion:
		s.x = float64(b % len(regionNames))
	case stepSolo:
		s.x = float64(b % 2)
	}
}

// TestWindowedProgramsMatchPerOp is the equivalence property behind
// windows: a random SPMD program of compute charges, phantom
// collectives, ring halos, region and solo switches and sparse clock
// and stream reads, on the world and a reordered Split, gives exactly
// the same observed clocks and draws, exit clocks, tracer callbacks and
// stable metrics as the same program with a Clock() after every step,
// which evaluates each operation at its own rendezvous (and which
// TestPhantomScheduleMatchesMessages and
// TestRingExchangeScheduleMatchesMessages hold equal to the message
// path). Observation densities run from none (windows fill to
// windowCap and park full) to one step in five.
func TestWindowedProgramsMatchPerOp(t *testing.T) {
	plats := []*platform.Platform{platform.Vayu(), platform.DCC(), platform.EC2()}
	nps := []int{1, 2, 3, 5, 8, 31, 32}
	densities := []float64{0, 0.01, 0.05, 0.2}
	steps := 700
	if testing.Short() || raceEnabled {
		nps, steps = []int{1, 3, 8, 32}, 300
	}
	for i, p := range plats {
		for j, np := range nps {
			for k, d := range densities {
				p, np, d, seed := p, np, d, uint64(10000+100*i+10*j+k)
				t.Run(fmt.Sprintf("%s/np%d/observe=%v", p.Name, np, d), func(t *testing.T) {
					prog := genProgram(sim.NewRNG(seed), np, steps, d)
					want := runProgram(t, p, np, seed, prog, true)
					got := runProgram(t, p, np, seed, prog, false)
					samePhantomOutcome(t, np, got, want)
				})
			}
		}
	}
}

// decodeProgram turns fuzz bytes into a program for np ranks, three
// bytes a step: the step kind and communicator, then its parameters.
func decodeProgram(data []byte, np int) []winStep {
	var prog []winStep
	for i := 0; i+2 < len(data); i += 3 {
		s := winStep{what: stepKind(data[i] % byte(stepKinds)), split: data[i]&0x80 != 0}
		fillStep(&s, np, int(data[i+1])|int(data[i+2])<<8)
		prog = append(prog, s)
	}
	return prog
}

// kspSeed encodes Chaste's KSp solve for decodeProgram: a region switch
// and a clock read, then iters iterations of a compute charge, the ring
// halo at 3 pairs and two 4-byte all-reduces, then the closing clock
// read.
func kspSeed(iters int) []byte {
	data := []byte{byte(stepRegion), 1, 0, byte(stepClock), 0, 0}
	for range iters {
		data = append(data,
			byte(stepCompute), 99, 0,
			byte(stepRing), 18, 0, // 18 % 5 = 3 pairs, winSizes[18 / 5 % 6] = 12 KiB
			byte(stepColl), 5, 0, // 5 % 4: Allreduce of winSizes[5 / 4] = 4 bytes
			byte(stepColl), 5, 0)
	}
	return append(data, byte(stepClock), 0, 0)
}

// FuzzWindowedProgram checks the TestWindowedProgramsMatchPerOp
// property on arbitrary 4-rank programs.
func FuzzWindowedProgram(f *testing.F) {
	f.Add(kspSeed(50))
	f.Add(kspSeed(90)) // overflows the window
	f.Add([]byte{byte(stepColl), 2, 0, byte(stepSeconds), 7, 0, byte(stepColl) | 0x80, 3, 1, byte(stepRNG), 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const np = 4
		prog := decodeProgram(data, np)
		want := runProgram(t, platform.EC2(), np, 7, prog, true)
		got := runProgram(t, platform.EC2(), np, 7, prog, false)
		sameOutcome(t, np, got, want)
	})
}

// TestKSpProgramParksOncePerSolve is the deterministic gate behind
// windows, which no time or allocation budget can see: a 32-rank KSp
// program that reads the clock only around each 50-iteration solve
// must park each rank at most once per solve (the closing clock read),
// not at each of the solve's 150 collectives.
func TestKSpProgramParksOncePerSolve(t *testing.T) {
	const np, iters, solves = 32, 50, 4
	w := testWorld(t, platform.Vayu(), cluster.Spec{NP: np})
	defer w.Release()
	_, err := w.Run(func(c *Comm) error {
		var ksp float64
		for range solves {
			start := c.Clock()
			for range iters {
				c.Compute(cpumodel.Work{Flops: 1e6, Bytes: 1e6})
				c.RingExchangeN(12<<10, 3)
				c.AllreduceN(4)
				c.AllreduceN(4)
			}
			ksp += c.Clock() - start
		}
		if ksp <= 0 {
			return fmt.Errorf("KSp time %g", ksp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parks := 0
	for s := w.slots.Load(); s != nil; s = s.next {
		parks += s.parks
	}
	if limit := np * (solves + 1); parks > limit {
		t.Errorf("%d parks, want at most %d: one per rank per solve", parks, limit)
	}
}
