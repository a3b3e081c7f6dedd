// Package ipm implements an IPM-style performance profiler for the mpi
// runtime: per-rank and per-region accounting of communication,
// computation and I/O time, per-call statistics, message-size histograms,
// communication percentage and load-imbalance metrics — the numbers the
// paper reports in Tables II/III and Figure 7.
package ipm

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// DefaultRegion is the region label used before the first Comm.Region call.
const DefaultRegion = "(main)"

// CallStats aggregates one MPI call type.
type CallStats struct {
	Count int
	Time  float64
	Bytes int64
}

// RegionStats aggregates activity inside one profiling region on one rank.
type RegionStats struct {
	Comm    float64
	Compute float64
	IO      float64
	Wait    float64 // of Comm: blocked waiting for peers (late sender / straggler)
	Queued  float64 // messages for this rank sat unmatched this long
}

// Wall returns the accounted virtual time in the region.
func (r *RegionStats) Wall() float64 { return r.Comm + r.Compute + r.IO }

// callEntry is one call name's statistics in a callTable.
type callEntry struct {
	name  string
	stats CallStats
}

// callTable holds per-name call statistics in first-seen order. A rank
// issues a handful of distinct call names, so a scan by name — usually
// a pointer-equal string compare — beats hashing the name on every call.
type callTable []callEntry

// add counts one call into the entry for its name.
func (ct *callTable) add(rec *mpi.CallRecord) {
	i := 0
	for i < len(*ct) && (*ct)[i].name != rec.Name {
		i++
	}
	if i == len(*ct) {
		if *ct == nil {
			*ct = make(callTable, 0, 4) // most regions issue at most four call names
		}
		*ct = append(*ct, callEntry{name: rec.Name})
	}
	cs := &(*ct)[i].stats
	cs.Count++
	cs.Time += rec.Dur
	cs.Bytes += int64(rec.Bytes)
}

// regionEntry is one region's accounting on one rank.
type regionEntry struct {
	name string
	RegionStats
	calls callTable
}

// findRegion returns the entry named name, or nil.
func findRegion(regions []*regionEntry, name string) *regionEntry {
	for _, re := range regions {
		if re.name == name {
			return re
		}
	}
	return nil
}

// rankCollector gathers events for one rank. All events for a rank arrive
// from that rank's goroutine, so no locking is needed. Nothing on the
// event path hashes: call names and regions are scanned slices, and the
// only maps are the ones Snapshot and RegionCalls return.
type rankCollector struct {
	region   string
	cur      *regionEntry // region's entry; nil until its first event
	comm     float64
	compute  float64
	io       float64
	wait     float64
	queued   float64
	calls    callTable
	regions  []*regionEntry // regions with activity, in first-event order
	sizeHist []int          // message count by sizeBucket
}

func newRankCollector() *rankCollector {
	rc := &rankCollector{region: DefaultRegion}
	rc.regionStats() // the default region is always reported
	return rc
}

// regionStats returns the current region's entry, creating it on the
// region's first event, so a region entered and left without activity
// never appears.
func (rc *rankCollector) regionStats() *regionEntry {
	if rc.cur == nil {
		rc.cur = findRegion(rc.regions, rc.region)
	}
	if rc.cur == nil {
		rc.cur = &regionEntry{name: rc.region}
		rc.regions = append(rc.regions, rc.cur)
	}
	return rc.cur
}

// Profiler implements mpi.Tracer.
type Profiler struct {
	ranks []*rankCollector
}

var _ mpi.Tracer = (*Profiler)(nil)

// New creates a profiler for np ranks.
func New(np int) *Profiler {
	p := &Profiler{ranks: make([]*rankCollector, np)}
	for i := range p.ranks {
		p.ranks[i] = newRankCollector()
	}
	return p
}

// Call implements mpi.Tracer.
func (p *Profiler) Call(rank int, rec mpi.CallRecord) {
	rc := p.ranks[rank]
	rc.comm += rec.Dur
	rc.wait += rec.Wait
	rc.queued += rec.Queued
	rc.calls.add(&rec)
	re := rc.regionStats()
	re.Comm += rec.Dur
	re.Wait += rec.Wait
	re.Queued += rec.Queued
	re.calls.add(&rec)
	b := sizeBucket(rec.Bytes)
	if b >= len(rc.sizeHist) {
		// Grow once to cover messages up to 16 MiB, or to b.
		rc.sizeHist = append(rc.sizeHist, make([]int, max(b+1, 25)-len(rc.sizeHist))...)
	}
	rc.sizeHist[b]++
}

// Advance implements mpi.Tracer.
func (p *Profiler) Advance(rank int, kind string, start, dur float64) {
	rc := p.ranks[rank]
	re := rc.regionStats()
	switch kind {
	case "compute":
		rc.compute += dur
		re.Compute += dur
	case "io":
		rc.io += dur
		re.IO += dur
	}
}

// Region implements mpi.Tracer.
func (p *Profiler) Region(rank int, name string, at float64) {
	if name == "" {
		name = DefaultRegion
	}
	rc := p.ranks[rank]
	if name != rc.region {
		rc.region, rc.cur = name, nil
	}
}

// sizeBucket returns the log2 bucket index for a message size (0 bytes
// maps to bucket 0).
func sizeBucket(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// BucketBytes returns the upper bound of a histogram bucket.
func BucketBytes(bucket int) int { return 1 << bucket }

// Profile is an immutable snapshot of a finished run.
type Profile struct {
	NP     int
	Wall   sim.Series // per-rank final clocks
	Comm   sim.Series
	Comp   sim.Series
	IO     sim.Series
	Wait   sim.Series           // of Comm: per-rank blocked time (Scalasca wait states)
	Queued sim.Series           // per-rank late-receiver time
	Calls  map[string]CallStats // aggregated over ranks

	// Resilience accounting, populated (via SetResilience) for runs under
	// the fault plane with checkpoint/restart. For such runs the per-rank
	// identity comp + comm + io + LostWork + RestartOverhead <= wall
	// holds: discarded incarnations occupy disjoint virtual intervals.
	Restarts        int     // incarnations discarded by failures
	Checkpoints     int     // durable checkpoints committed
	LostWork        float64 // virtual seconds of discarded progress per rank
	RestartOverhead float64 // virtual seconds spent restarting per rank

	regions  [][]*regionEntry // per rank, in first-event order
	sizeHist []int            // aggregated, by sizeBucket
}

// SetResilience attaches checkpoint/restart accounting to the profile.
func (pr *Profile) SetResilience(restarts, checkpoints int, lostWork, restartOverhead float64) {
	pr.Restarts = restarts
	pr.Checkpoints = checkpoints
	pr.LostWork = lostWork
	pr.RestartOverhead = restartOverhead
}

// LostWorkPercent returns lost (discarded plus restart) time as a
// percentage of total walltime.
func (pr *Profile) LostWorkPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * float64(pr.NP) * (pr.LostWork + pr.RestartOverhead) / wall
}

// Snapshot combines the collected events with the run result into a
// profile. It must be called after mpi's Run returns.
func (p *Profiler) Snapshot(res *mpi.Result) *Profile {
	np := len(p.ranks)
	pr := &Profile{
		NP:      np,
		Wall:    append(sim.Series(nil), res.RankTimes...),
		Comm:    make(sim.Series, np),
		Comp:    make(sim.Series, np),
		IO:      make(sim.Series, np),
		Wait:    make(sim.Series, np),
		Queued:  make(sim.Series, np),
		Calls:   map[string]CallStats{},
		regions: make([][]*regionEntry, np),
	}
	for r, rc := range p.ranks {
		pr.Comm[r] = rc.comm
		pr.Comp[r] = rc.compute
		pr.IO[r] = rc.io
		pr.Wait[r] = rc.wait
		pr.Queued[r] = rc.queued
		pr.regions[r] = rc.regions
		addCalls(pr.Calls, rc.calls)
		if len(rc.sizeHist) > len(pr.sizeHist) {
			pr.sizeHist = append(pr.sizeHist, make([]int, len(rc.sizeHist)-len(pr.sizeHist))...)
		}
		for b, c := range rc.sizeHist {
			pr.sizeHist[b] += c
		}
	}
	return pr
}

// addCalls adds one rank's call table into an aggregate keyed by name.
func addCalls(agg map[string]CallStats, ct callTable) {
	for _, e := range ct {
		cs := agg[e.name]
		cs.Count += e.stats.Count
		cs.Time += e.stats.Time
		cs.Bytes += e.stats.Bytes
		agg[e.name] = cs
	}
}

// CommPercent returns the percentage of total walltime spent in
// communication — IPM's "%comm", the statistic of Table II.
func (pr *Profile) CommPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * pr.Comm.Sum() / wall
}

// WaitPercent returns blocked (wait-state) time as a percentage of
// communication time: how much of IPM's "%comm" is peers being late
// rather than wires being slow.
func (pr *Profile) WaitPercent() float64 {
	comm := pr.Comm.Sum()
	if comm == 0 {
		return 0
	}
	return 100 * pr.Wait.Sum() / comm
}

// RegionWait returns the per-rank wait and queued series for one region.
func (pr *Profile) RegionWait(name string) (wait, queued sim.Series) {
	wait = make(sim.Series, pr.NP)
	queued = make(sim.Series, pr.NP)
	for r, regions := range pr.regions {
		if re := findRegion(regions, name); re != nil {
			wait[r] = re.Wait
			queued[r] = re.Queued
		}
	}
	return wait, queued
}

// IOPercent returns the percentage of total walltime spent in file I/O.
func (pr *Profile) IOPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * pr.IO.Sum() / wall
}

// LoadImbalancePercent returns 100*(max-mean)/max of per-rank computation
// time — the paper's "%imbal".
func (pr *Profile) LoadImbalancePercent() float64 {
	return 100 * pr.Comp.Imbalance()
}

// Time returns the job's virtual wall time.
func (pr *Profile) Time() float64 { return pr.Wall.Max() }

// RegionNames returns all region labels seen, sorted.
func (pr *Profile) RegionNames() []string {
	set := map[string]bool{}
	for _, regions := range pr.regions {
		for _, re := range regions {
			set[re.name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Region returns the aggregated per-rank series for one region:
// computation, communication and I/O time per rank. Ranks that never
// entered the region contribute zeros.
func (pr *Profile) Region(name string) (comp, comm, io sim.Series) {
	comp = make(sim.Series, pr.NP)
	comm = make(sim.Series, pr.NP)
	io = make(sim.Series, pr.NP)
	for r, regions := range pr.regions {
		if re := findRegion(regions, name); re != nil {
			comp[r] = re.Compute
			comm[r] = re.Comm
			io[r] = re.IO
		}
	}
	return comp, comm, io
}

// RegionCommPercent returns %comm within one region.
func (pr *Profile) RegionCommPercent(name string) float64 {
	comp, comm, io := pr.Region(name)
	total := comp.Sum() + comm.Sum() + io.Sum()
	if total == 0 {
		return 0
	}
	return 100 * comm.Sum() / total
}

// RegionCalls aggregates call statistics across ranks for one region.
func (pr *Profile) RegionCalls(name string) map[string]CallStats {
	out := map[string]CallStats{}
	for _, regions := range pr.regions {
		if re := findRegion(regions, name); re != nil {
			addCalls(out, re.calls)
		}
	}
	return out
}

// SizeHistogram returns (bucketUpperBytes, count) pairs sorted by size,
// for the buckets that hold at least one message.
func (pr *Profile) SizeHistogram() ([]int, []int) {
	sizes, counts := []int{}, []int{}
	for b, c := range pr.sizeHist {
		if c > 0 {
			sizes = append(sizes, BucketBytes(b))
			counts = append(counts, c)
		}
	}
	return sizes, counts
}

// AvgMessageBytes returns the mean message size over all recorded calls,
// or 0 when nothing was sent.
func (pr *Profile) AvgMessageBytes() float64 {
	var n int
	var bytes int64
	for _, cs := range pr.Calls {
		n += cs.Count
		bytes += cs.Bytes
	}
	if n == 0 {
		return 0
	}
	return float64(bytes) / float64(n)
}

// String renders a compact IPM-like summary.
func (pr *Profile) String() string {
	s := fmt.Sprintf("ranks=%d wall=%.3fs comm=%.1f%% io=%.1f%% imbal=%.1f%%\n",
		pr.NP, pr.Time(), pr.CommPercent(), pr.IOPercent(), pr.LoadImbalancePercent())
	names := make([]string, 0, len(pr.Calls))
	for n := range pr.Calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := pr.Calls[n]
		s += fmt.Sprintf("  %-12s count=%-8d time=%.4fs bytes=%d\n", n, cs.Count, cs.Time, cs.Bytes)
	}
	return s
}
