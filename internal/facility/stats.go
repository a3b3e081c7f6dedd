package facility

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
)

// Summary aggregates one run's outcomes into the E14 metrics.
type Summary struct {
	Jobs, Completed, Killed int
	ByPool                  [NumPools]int

	AvgWait, MaxWait          float64
	WaitP50, WaitP90, WaitP99 float64
	SlowMean, SlowP99         float64 // bounded slowdown (threshold tau)

	CloudShare    float64 // fraction of jobs placed off the HPC partition
	Interruptions int
	LostWork      float64
	Cost          float64
	Makespan      float64
}

// Summarize folds outcomes into a Summary; tau is the bounded-slowdown
// threshold (<=0 = 10). Accumulation runs in slice (submission) order,
// so the summary is as deterministic as the outcomes.
func Summarize(outcomes []Outcome, tau float64) Summary {
	if tau <= 0 {
		tau = 10
	}
	var s Summary
	s.Jobs = len(outcomes)
	waits := make([]float64, 0, len(outcomes))
	slows := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		switch o.State {
		case StateKilled:
			s.Killed++
		default:
			s.Completed++
		}
		s.ByPool[o.Pool]++
		s.AvgWait += o.Wait
		if o.Wait > s.MaxWait {
			s.MaxWait = o.Wait
		}
		bs := o.BoundedSlowdown(tau)
		s.SlowMean += bs
		waits = append(waits, o.Wait)
		slows = append(slows, bs)
		s.Interruptions += o.Interruptions
		s.LostWork += o.LostWork
		s.Cost += o.Cost
		if o.End > s.Makespan {
			s.Makespan = o.End
		}
	}
	if s.Jobs > 0 {
		s.AvgWait /= float64(s.Jobs)
		s.SlowMean /= float64(s.Jobs)
		s.CloudShare = float64(s.Jobs-s.ByPool[PoolHPC]) / float64(s.Jobs)
	}
	sort.Float64s(waits)
	sort.Float64s(slows)
	s.WaitP50 = percentile(waits, 50)
	s.WaitP90 = percentile(waits, 90)
	s.WaitP99 = percentile(waits, 99)
	s.SlowP99 = percentile(slows, 99)
	return s
}

// percentile returns the nearest-rank p-th percentile of ascending vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return vals[rank-1]
}

// Digest returns a hex digest over every outcome's exact bit pattern —
// two runs are the same run iff their digests match. The fuzz and
// determinism tests compare these.
func Digest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(math.Float64bits(res.Clock))
	w64(uint64(res.Events))
	for _, o := range res.Outcomes {
		hashOutcome(h, &buf, o)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashOutcome writes one outcome's exact bit pattern to h (shared by
// Digest and the streaming StreamDigest).
func hashOutcome(h hash.Hash, buf *[8]byte, o Outcome) {
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	h.Write([]byte(o.Tenant))
	h.Write([]byte{0})
	h.Write([]byte(o.Class))
	h.Write([]byte{0, byte(o.Pool), byte(o.State)})
	w64(uint64(o.Seq))
	w64(uint64(o.NP))
	w64(uint64(o.Interruptions))
	wf(o.Runtime)
	wf(o.Limit)
	wf(o.Submit)
	wf(o.Start)
	wf(o.End)
	wf(o.Reserved)
	wf(o.LostWork)
	wf(o.Cost)
}
