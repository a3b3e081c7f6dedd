package facility

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
	buf := binary.BigEndian.AppendUint64(nil, math.Float64bits(res.Clock))
	buf = binary.BigEndian.AppendUint64(buf, uint64(res.Events))
	h.Write(buf)
	for _, o := range res.Outcomes {
		buf = appendOutcome(buf[:0], o)
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// appendOutcome appends one outcome's exact bit pattern to b — the
// record Digest hashes one Write at a time and StreamDigest in blocks.
func appendOutcome(b []byte, o Outcome) []byte {
	be := binary.BigEndian
	b = append(b, o.Tenant...)
	b = append(b, 0)
	b = append(b, o.Class...)
	b = append(b, 0, byte(o.Pool), byte(o.State))
	b = be.AppendUint64(b, uint64(o.Seq))
	b = be.AppendUint64(b, uint64(o.NP))
	b = be.AppendUint64(b, uint64(o.Interruptions))
	for _, v := range [...]float64{o.Runtime, o.Limit, o.Submit, o.Start, o.End, o.Reserved, o.LostWork, o.Cost} {
		b = be.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
