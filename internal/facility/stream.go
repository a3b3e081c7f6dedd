package facility

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/sim"
)

// Streaming statistics for RunStream: a million-outcome run must not
// keep a million outcomes. Counters, sums and maxima are exact;
// percentiles come from fixed-size seeded reservoir samples (Vitter's
// algorithm R over the deterministic sim RNG), so the whole summary is
// O(reservoir) memory and bit-reproducible for a given seed. Runs no
// longer than the reservoir keep every value, making the percentiles
// exactly Summarize's.

// reservoirSize is the default percentile sample size (per stream).
const reservoirSize = 4096

// reservoir is a fixed-size uniform sample of a float64 stream.
type reservoir struct {
	rng  *sim.RNG
	keep []float64
	seen int
}

func newReservoir(size int, rng *sim.RNG) reservoir {
	return reservoir{rng: rng, keep: make([]float64, 0, size)}
}

func (r *reservoir) observe(v float64) {
	r.seen++
	if len(r.keep) < cap(r.keep) {
		r.keep = append(r.keep, v)
		return
	}
	if i := r.rng.Intn(r.seen); i < len(r.keep) {
		r.keep[i] = v
	}
}

// percentile returns the nearest-rank percentile of the sample.
func (r *reservoir) percentile(p float64) float64 {
	vals := append([]float64(nil), r.keep...)
	sort.Float64s(vals)
	return percentile(vals, p)
}

// StreamSummary folds a stream of outcomes into a Summary in O(1)
// memory. Feed it to RunStream as (or from) the emit callback and call
// Summary when the run returns.
type StreamSummary struct {
	tau   float64
	waits reservoir
	slows reservoir

	jobs, completed, killed int
	byPool                  [NumPools]int
	sumWait, maxWait        float64
	sumSlow                 float64
	interruptions           int
	lostWork, cost          float64
	makespan                float64
}

// NewStreamSummary returns a streaming summarizer; tau is the
// bounded-slowdown threshold (<=0 = 10) and seed derives the reservoir
// sampling streams (same seed + same outcome stream = same Summary).
func NewStreamSummary(tau float64, seed uint64) *StreamSummary {
	if tau <= 0 {
		tau = 10
	}
	rng := sim.NewRNG(seed)
	return &StreamSummary{
		tau:   tau,
		waits: newReservoir(reservoirSize, rng.Derive(1)),
		slows: newReservoir(reservoirSize, rng.Derive(2)),
	}
}

// Observe folds one outcome in. The accumulation mirrors Summarize
// field for field; only the percentiles are sampled.
func (s *StreamSummary) Observe(o Outcome) {
	s.jobs++
	switch o.State {
	case StateKilled:
		s.killed++
	default:
		s.completed++
	}
	s.byPool[o.Pool]++
	s.sumWait += o.Wait
	if o.Wait > s.maxWait {
		s.maxWait = o.Wait
	}
	bs := o.BoundedSlowdown(s.tau)
	s.sumSlow += bs
	s.waits.observe(o.Wait)
	s.slows.observe(bs)
	s.interruptions += o.Interruptions
	s.lostWork += o.LostWork
	s.cost += o.Cost
	if o.End > s.makespan {
		s.makespan = o.End
	}
}

// Summary closes the accumulation into a Summary. Exact except for the
// four percentile fields when more than reservoirSize outcomes streamed
// through.
func (s *StreamSummary) Summary() Summary {
	out := Summary{
		Jobs: s.jobs, Completed: s.completed, Killed: s.killed,
		ByPool: s.byPool, MaxWait: s.maxWait,
		Interruptions: s.interruptions, LostWork: s.lostWork,
		Cost: s.cost, Makespan: s.makespan,
	}
	if s.jobs > 0 {
		out.AvgWait = s.sumWait / float64(s.jobs)
		out.SlowMean = s.sumSlow / float64(s.jobs)
		out.CloudShare = float64(s.jobs-s.byPool[PoolHPC]) / float64(s.jobs)
	}
	out.WaitP50 = s.waits.percentile(50)
	out.WaitP90 = s.waits.percentile(90)
	out.WaitP99 = s.waits.percentile(99)
	out.SlowP99 = s.slows.percentile(99)
	return out
}

// StreamDigest accumulates an outcome digest incrementally, in emission
// (completion) order — the streaming counterpart of Digest, which
// hashes in submission order, so the two digest domains are distinct
// but each is bit-stable: identical streams produce identical digests.
// Records collect in a block buffer that is hashed whenever it fills
// and at Sum, so the hash takes a few large writes rather than one per
// outcome; the digest is the sha256 of the records' concatenation
// either way.
type StreamDigest struct {
	h   hash.Hash
	buf []byte // records not yet hashed
}

// digestBlock is the buffered byte count at which Observe hashes. The
// buffer is allocated with room for one more ~100-byte record beyond
// it, so it never grows for records of ordinary length.
const digestBlock = 8 << 10

// NewStreamDigest returns an empty streaming digest.
func NewStreamDigest() *StreamDigest {
	return &StreamDigest{h: sha256.New(), buf: make([]byte, 0, digestBlock+256)}
}

// Observe adds one outcome's exact bit pattern. It allocates nothing
// unless a record's tenant and class names outgrow the buffer's slack.
func (d *StreamDigest) Observe(o Outcome) {
	d.buf = appendOutcome(d.buf, o)
	if len(d.buf) >= digestBlock {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

// Sum seals the digest with the run's clock and event count.
func (d *StreamDigest) Sum(clock float64, events int) string {
	d.buf = binary.BigEndian.AppendUint64(d.buf, math.Float64bits(clock))
	d.buf = binary.BigEndian.AppendUint64(d.buf, uint64(events))
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return fmt.Sprintf("%x", d.h.Sum(nil))
}
