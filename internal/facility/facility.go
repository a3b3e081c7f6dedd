// Package facility simulates a long-running, multi-tenant batch facility
// in virtual time: a SLURM-style central queue with FCFS + EASY backfill
// and decayed-usage fairshare priorities over the paper's three resource
// pools (the Vayu HPC partition, the DCC private cloud, the EC2 public
// cloud), an ARRIVE-F-style broker routing each job by predicted runtime
// and cost, and spot-market interruptions threaded through the fault
// plane with checkpoint/restart costs charged via iomodel.
//
// The simulation is entirely event-driven: arrivals, completions and
// limit kills are events under one strict total order in virtual time,
// so a facility run is a pure function of (workload, config) —
// bit-reproducible at any host parallelism, and compared bit for bit
// against a small-N strict-FCFS list scheduler (the oracle in
// oracle_test.go) by the cross-validation tests. Completions and spot
// wakes sit on an in-flight-sized heap (pdes.Queue), each carrying its
// job record; arrivals stream from the job slice in (submit, index)
// order and are merged with the heap minimum, so the event loop's
// memory follows the in-flight set, not the workload length.
//
// The scheduler keeps incremental structures — a lazily re-keyed
// pending heap, a maintained release profile for EASY reservations, and
// O(1) wait-estimate aggregates — so a million-job run stays
// near-linear. The original sort-per-pass implementation (schedSort)
// stays in the package as the oracle its tests compare against bit for
// bit; only those tests can select it.
package facility

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/pdes"
	"repro/internal/sim"
)

// Pool identifies one resource pool jobs can be placed on.
type Pool uint8

// The paper's three platforms, as schedulable pools.
const (
	PoolHPC Pool = iota // Vayu: the facility's own partition
	PoolDCC             // private cloud
	PoolEC2             // public cloud (on-demand or spot)
	NumPools
)

// String implements fmt.Stringer.
func (p Pool) String() string {
	switch p {
	case PoolHPC:
		return "vayu"
	case PoolDCC:
		return "dcc"
	case PoolEC2:
		return "ec2"
	}
	return fmt.Sprintf("pool(%d)", int(p))
}

// JobState is a job's terminal (or in-flight) state.
type JobState uint8

// Job lifecycle states. Every submitted job ends exactly once as
// Completed or Killed — the conservation property the test battery pins.
const (
	StateQueued JobState = iota
	StateRunning
	StateCompleted
	StateKilled // exceeded its wall limit on the HPC partition
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one batch submission.
type Job struct {
	Tenant string // accounting principal (fairshare group)
	Class  string // workload class (broker prediction key)
	NP     int    // slots requested
	// Runtime is the job's execution time on the reference (HPC) pool in
	// virtual seconds; other pools scale it by the broker's projected
	// per-class slowdown factor.
	Runtime float64
	// Limit is the requested wall limit on the reference pool (the
	// scheduler's planning bound, scaled like Runtime). Zero means
	// "exactly Runtime". A job whose Runtime exceeds its scaled limit is
	// killed at the limit on the HPC partition.
	Limit  float64
	Submit float64 // submission virtual time
}

// Outcome is one job's final record.
type Outcome struct {
	Job
	Seq   int // submission index (the job's facility-wide identity)
	Pool  Pool
	State JobState
	Start float64
	End   float64
	Wait  float64 // Start - Submit
	// Service is the span the job held its slots (End - Start): execution
	// plus checkpoint writes plus, on spot, outage gaps and restarts.
	Service float64
	// Reserved is the earliest EASY reservation guarantee computed for
	// the job while it was the blocked head of the HPC queue (0 when it
	// never was); later passes refresh it downward as completions beat
	// the planning bounds. With fairshare off, Start <= Reserved is the
	// backfill guarantee.
	Reserved      float64
	Interruptions int     // spot preemptions suffered
	LostWork      float64 // rolled-back execution seconds
	Cost          float64 // $ billed (0 on the facility's own partition)
}

// BoundedSlowdown returns max(1, (wait+service)/max(service, tau)) — the
// standard queueing metric that keeps sub-tau jobs from dominating.
func (o Outcome) BoundedSlowdown(tau float64) float64 {
	if tau <= 0 {
		tau = 10
	}
	den := math.Max(o.Service, tau)
	s := (o.Wait + o.Service) / den
	if s < 1 {
		return 1
	}
	return s
}

// schedKind selects the scheduler implementation. Only package tests
// select the sort-per-pass oracle; every caller outside the package runs
// the default heap scheduler.
type schedKind uint8

const (
	// schedHeap is the incremental scheduler: a lazily re-keyed pending
	// heap, a maintained release profile and O(1) wait estimates. The
	// default, and the path the E15 million-job artefact runs on.
	schedHeap schedKind = iota
	// schedSort is the original sort-per-pass scheduler, kept as the
	// oracle the scheduler-parity tests compare schedHeap against bit
	// for bit.
	schedSort
)

// Config parameterises one facility.
type Config struct {
	// Slots is each pool's schedulable slot capacity. Slots[PoolHPC]
	// must be positive; a zero cloud pool is simply unavailable.
	Slots [NumPools]int

	// Backfill enables EASY backfill on the HPC partition: when the
	// highest-priority job cannot start, later jobs may run out of order
	// if (by their wall limits) they cannot delay its reservation.
	Backfill bool
	// BackfillDepth bounds how many queued jobs one backfill pass
	// examines (0 = 64, SLURM's bf_max_job_test discipline).
	BackfillDepth int

	// Fairshare orders the queue by decayed tenant usage instead of pure
	// FCFS. Ties (and the no-fairshare order) are (submit, seq).
	Fairshare bool
	// FairshareHalfLife is the usage decay half-life in virtual seconds
	// (0 = 86400, SLURM's default decay horizon shape).
	FairshareHalfLife float64
	// TenantWeights maps tenants to fairshare weights (unlisted = 1):
	// priority orders by decayed usage divided by weight.
	TenantWeights map[string]float64

	// Broker, when set, routes each arriving job across the pools by
	// predicted runtime and cost; nil statically places everything on
	// the HPC partition.
	Broker *Broker

	// Spot, when set, makes the EC2 pool a spot-market pool: jobs there
	// pay the spot price but suffer the plan's outages, rolling back to
	// their last checkpoint (fault.Progress arithmetic) and paying
	// checkpoint/restart I/O costs through iomodel.
	Spot *SpotConfig

	// Prices is the $ per slot-hour billed on each pool (PoolHPC is
	// conventionally 0: the facility owns it).
	Prices [NumPools]float64

	// Tau is the bounded-slowdown threshold in seconds (0 = 10).
	Tau float64

	// sched selects the scheduler implementation (default schedHeap).
	sched schedKind

	// Metrics, when set, receives facility counters (submissions, starts,
	// kills, backfills, interruptions) in the obs registry.
	Metrics *obs.Registry
	// Meter, when set, accumulates the simulated makespan.
	Meter *sim.Meter
}

// Validate rejects malformed configurations.
func (c *Config) Validate() error {
	if c.Slots[PoolHPC] <= 0 {
		return fmt.Errorf("facility: HPC pool needs positive slots")
	}
	for p := PoolHPC; p < NumPools; p++ {
		if c.Slots[p] < 0 {
			return fmt.Errorf("facility: pool %s has negative slots", p)
		}
		if c.Prices[p] < 0 {
			return fmt.Errorf("facility: pool %s has negative price", p)
		}
	}
	if c.BackfillDepth < 0 || c.FairshareHalfLife < 0 || c.Tau < 0 {
		return fmt.Errorf("facility: negative knob in %+v", c)
	}
	tenants := make([]string, 0, len(c.TenantWeights))
	for t := range c.TenantWeights {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if w := c.TenantWeights[t]; w <= 0 {
			return fmt.Errorf("facility: tenant %s weight %g must be positive", t, w)
		}
	}
	if c.Spot != nil {
		if err := c.Spot.Validate(); err != nil {
			return err
		}
	}
	if c.Broker != nil {
		if err := c.Broker.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Config) backfillDepth() int {
	if c.BackfillDepth == 0 {
		return 64
	}
	return c.BackfillDepth
}

func (c *Config) tau() float64 {
	if c.Tau == 0 {
		return 10
	}
	return c.Tau
}

// Result is one facility run's full record.
type Result struct {
	Outcomes []Outcome // indexed by submission order
	Clock    float64   // virtual makespan (last event time)
	Events   int       // events processed
}

// StreamResult is a streaming run's aggregate record (the per-job
// outcomes went to the emit callback instead of a slice).
type StreamResult struct {
	Jobs   int
	Clock  float64 // virtual makespan (last event time)
	Events int     // events processed
}

// event kinds; completions order before arrivals at equal times so a
// slot freed at t can be reused by a job submitted at t (the same
// convention the FCFS test oracle's interval arithmetic encodes).
const (
	kindComplete = 0
	kindArrive   = 1
	// kindWake re-runs the spot pool's scheduler when an outage window
	// closes — without it, jobs queued during an outage would never be
	// revisited once the event heap drains.
	kindWake = 2
)

// jobRec is the mutable in-flight state of one job. Records are
// slab-allocated on arrival and recycled after their outcome is
// emitted, so a streaming run's live records are bounded by the
// in-flight set, not the workload length.
type jobRec struct {
	job  Job
	seq  int
	pool Pool

	state JobState
	start float64
	end   float64

	// planDur is the scheduler's planning bound for the job on its pool
	// (scaled wall limit); execution beyond it is killed on HPC.
	planDur float64
	// charge is the slot-seconds-per-slot the tenant is billed for
	// (execution incl. lost work and checkpoint writes, excl. outages).
	charge float64
	// qwork is the job's stored contribution to its pool's queued-work
	// aggregate; subtracting the identical float on start keeps the
	// incremental sum exact per job.
	qwork float64
	// factors is the job's projected runtime multiplier on each pool,
	// resolved from the broker once at arrival (all 1 without one).
	factors [NumPools]float64
	// acct is the tenant's dense fairshare account, interned ahead of
	// arrival (see internAhead); nil without fairshare. Both schedulers
	// and the charge on completion read it, so no tenant name is
	// hashed past arrival.
	acct *tenantUsage

	reserved      float64
	interruptions int
	lost          float64
	cost          float64
}

// poolState is one pool's scheduler state.
type poolState struct {
	id    Pool
	slots int
	free  int

	// Sort-oracle path: pending jobs in priority order (see sortQueue)
	// and the running set the per-pass reservation sort walks.
	queue   []*jobRec
	running []*jobRec

	// Heap path: the pending heap and (HPC only) the maintained
	// timeline of planned releases reservations walk.
	pend    pendHeap
	profile releaseProfile

	// Maintained aggregates shared by both paths so estWait is O(1):
	// queued planning-bound work, and the running set's Σnp / Σnp·end.
	qWork float64
	npRun int
	npEnd float64

	wakeAt float64 // pending kindWake event time (0 = none)
}

// metrics bundles the facility's obs instruments.
type metrics struct {
	submitted, started, completed, killed *obs.Counter
	backfilled, interruptions             *obs.Counter
	waits                                 *obs.Histogram
	// Reservation refinements (EASY guarantees moving earlier as
	// completions beat planning bounds) are registered volatile:
	// diagnostics added after fac1 shipped must not perturb the stable
	// snapshots embedded in committed artefact manifests.
	resvRefined  *obs.Counter
	resvRefineBy *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		submitted:     reg.Counter("facility_jobs_submitted_total", "jobs submitted to the facility"),
		started:       reg.Counter("facility_jobs_started_total", "jobs dispatched to a pool"),
		completed:     reg.Counter("facility_jobs_completed_total", "jobs that ran to completion"),
		killed:        reg.Counter("facility_jobs_killed_total", "jobs killed at their wall limit"),
		backfilled:    reg.Counter("facility_jobs_backfilled_total", "jobs started out of queue order by EASY backfill"),
		interruptions: reg.Counter("facility_spot_interruptions_total", "spot outages that rolled a job back"),
		waits:         reg.Histogram("facility_queue_wait_seconds", "per-job queue wait (virtual seconds, as ns)"),
		resvRefined:   reg.VolatileCounter("facility_reservations_refined_total", "EASY head reservations refreshed to an earlier guarantee"),
		resvRefineBy:  reg.VolatileHistogram("facility_reservation_refinement_seconds", "improvement per reservation refresh (virtual seconds, as ns)"),
	}
}

// Facility is one simulation instance. It is single-use: one Run or
// RunStream per Facility (a second call returns an error; build a new
// one with New). Not safe for concurrent use; distinct facilities are
// independent (the race stress test runs many at once against a shared
// read-only broker).
type Facility struct {
	cfg   Config
	pools [NumPools]*poolState
	share *shareTracker
	met   metrics

	// queue holds the in-flight events — completions and wakes, each
	// carrying its record. Arrivals never enter it: they stream from
	// jobs in (Submit, index) order and are merged with the queue
	// minimum under the same Event.Less order (nextEvent).
	queue pdes.Queue[*jobRec]
	// jobs is the run's input; an arrival event's Seq is its job index.
	// arrivals is nil when jobs is already submit-ordered (the cursor
	// walks the slice in place), else the stable index sort by Submit;
	// next is the cursor. pushed counts queued events, whose Seqs
	// continue past the arrival block at len(jobs).
	jobs     []Job
	arrivals []int
	next     int
	pushed   uint64
	ran      bool // set by the first Run/RunStream: a Facility is single-use
	clock    float64
	events   int

	emit     func(Outcome)
	finished int

	// ahead holds the dense account indices of the tenants of the
	// arrivals at cursor positions aheadAt, aheadAt+1, ...: up to
	// internWindow of them, interned in arrival order.
	ahead   []int32
	aheadAt int

	chunk   []jobRec    // slab the next fresh records come from
	freed   []*jobRec   // recycled records
	scratch []heapEntry // backfill keep-list, reused across passes
}

// New validates the config and returns a facility ready to Run.
func New(cfg Config) (*Facility, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Facility{cfg: cfg, share: newShareTracker(cfg.FairshareHalfLife, cfg.TenantWeights)}
	for p := PoolHPC; p < NumPools; p++ {
		f.pools[p] = &poolState{id: p, slots: cfg.Slots[p], free: cfg.Slots[p]}
	}
	f.met = newMetrics(cfg.Metrics)
	return f, nil
}

// Run simulates the whole workload and returns every job's outcome.
// Jobs are identified by their slice index; equal submit times keep
// slice order (the oracle's stable-sort convention).
func (f *Facility) Run(jobs []Job) (*Result, error) {
	res := &Result{Outcomes: make([]Outcome, len(jobs))}
	sr, err := f.RunStream(jobs, func(o Outcome) { res.Outcomes[o.Seq] = o })
	if err != nil {
		return nil, err
	}
	res.Clock, res.Events = sr.Clock, sr.Events
	return res, nil
}

// RunStream simulates the whole workload, calling emit exactly once per
// job — in completion order — instead of materialising a Result. Job
// records are recycled after emission and arrivals are read straight
// from jobs, so memory beyond the input is bounded by the in-flight set:
// the mode the 10^6-job E15 artefact runs in. Run is RunStream
// collecting into a slice; the two are outcome-for-outcome identical.
func (f *Facility) RunStream(jobs []Job, emit func(Outcome)) (StreamResult, error) {
	if f.ran {
		return StreamResult{}, fmt.Errorf("facility: Run called twice on one Facility; build a new one with New")
	}
	f.ran = true
	for i, j := range jobs {
		if err := f.validateJob(j); err != nil {
			return StreamResult{}, fmt.Errorf("facility: job %d: %w", i, err)
		}
	}
	f.jobs = jobs
	f.arrivals = arrivalOrder(jobs)
	f.emit = emit
	f.met.submitted.Add(int64(len(jobs)))

	for {
		e, ok := f.nextEvent()
		if !ok {
			break
		}
		if e.Time < f.clock {
			return StreamResult{}, fmt.Errorf("facility: virtual clock regressed %g -> %g", f.clock, e.Time)
		}
		f.clock = e.Time
		f.events++
		switch e.Rank {
		case kindArrive:
			rec := f.alloc(int(e.Seq), f.next-1)
			pool := f.route(rec)
			rec.pool = pool
			f.enqueue(f.pools[pool], rec)
			f.schedule(f.pools[pool])
		case kindComplete:
			pool := e.Data.pool
			f.complete(e.Data)
			f.schedule(f.pools[pool])
		case kindWake:
			f.schedule(f.pools[PoolEC2])
		}
	}
	if f.finished != len(jobs) {
		return StreamResult{}, fmt.Errorf("facility: %d of %d jobs never finished", len(jobs)-f.finished, len(jobs))
	}
	f.cfg.Meter.Add(f.clock)
	return StreamResult{Jobs: len(jobs), Clock: f.clock, Events: f.events}, nil
}

// arrivalOrder returns nil when jobs is already non-decreasing in Submit
// (every generated workload), else the job indices stably sorted by
// Submit: the (Submit, index) order arrivals are processed in. Submits
// are validated finite first, so the sort never sees a NaN.
func arrivalOrder(jobs []Job) []int {
	sorted := true
	for i := 1; i < len(jobs) && sorted; i++ {
		sorted = jobs[i].Submit >= jobs[i-1].Submit
	}
	if sorted {
		return nil
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(jobs[a].Submit, jobs[b].Submit) })
	return order
}

// nextEvent removes and returns the earliest pending event under
// Event.Less: the cursor's next arrival or the queue minimum, whichever
// orders first; ok is false once both are exhausted.
func (f *Facility) nextEvent() (e pdes.Event[*jobRec], ok bool) {
	top, queued := f.queue.Min()
	if f.next < len(f.jobs) {
		i := f.next
		if f.arrivals != nil {
			i = f.arrivals[i]
		}
		arrive := pdes.Event[*jobRec]{Time: f.jobs[i].Submit, Rank: kindArrive, Seq: uint64(i)}
		if !queued || arrive.Less(top) {
			f.next++
			return arrive, true
		}
	}
	if !queued {
		return top, false
	}
	return f.queue.Pop(), true
}

func (f *Facility) validateJob(j Job) error {
	if j.NP <= 0 {
		return fmt.Errorf("needs positive NP, got %d", j.NP)
	}
	cap := f.cfg.Slots[PoolHPC]
	if f.cfg.Broker != nil {
		// A brokered facility can place wide jobs on whichever pool fits.
		for p := PoolHPC; p < NumPools; p++ {
			if f.cfg.Slots[p] > cap {
				cap = f.cfg.Slots[p]
			}
		}
	}
	if j.NP > cap {
		return fmt.Errorf("needs %d slots, widest schedulable pool has %d", j.NP, cap)
	}
	if !(j.Runtime > 0) || math.IsInf(j.Runtime, 0) {
		return fmt.Errorf("needs positive finite Runtime, got %g", j.Runtime)
	}
	if !(j.Limit >= 0) || !(j.Submit >= 0) || math.IsInf(j.Limit, 0) || math.IsInf(j.Submit, 0) {
		return fmt.Errorf("Limit (%g) and Submit (%g) must be finite and non-negative", j.Limit, j.Submit)
	}
	if j.Tenant == "" {
		return fmt.Errorf("needs a tenant")
	}
	return nil
}

// alloc returns a fresh record for job i, the arrival at cursor
// position pos, reusing recycled ones. The record carries the job's
// per-pool factors and (with fairshare) its tenant's account.
func (f *Facility) alloc(i, pos int) *jobRec {
	var rec *jobRec
	if n := len(f.freed); n > 0 {
		rec = f.freed[n-1]
		f.freed = f.freed[:n-1]
	} else {
		if len(f.chunk) == 0 {
			f.chunk = make([]jobRec, 256)
		}
		rec = &f.chunk[0]
		f.chunk = f.chunk[1:]
	}
	*rec = jobRec{job: f.jobs[i], seq: i, state: StateQueued, factors: [NumPools]float64{1, 1, 1}}
	if rec.job.Limit == 0 {
		rec.job.Limit = rec.job.Runtime
	}
	if f.cfg.Broker != nil {
		rec.factors = f.cfg.Broker.factors(rec.job.Class)
	}
	if f.cfg.Fairshare {
		if pos-f.aheadAt >= len(f.ahead) {
			f.internAhead(pos)
		}
		rec.acct = f.share.at(f.ahead[pos-f.aheadAt])
	}
	return rec
}

// internWindow bounds how many upcoming arrivals internAhead interns
// at once: the run's interning state stays a fixed-size window, not a
// per-job array.
const internWindow = 1024

// internAhead interns the tenants of the next internWindow arrivals
// from cursor position pos on, in arrival order, so a tenant's account
// index depends only on when it first arrives, never on its name: a
// bijective relabeling of tenants leaves every index, and the schedule,
// unchanged.
func (f *Facility) internAhead(pos int) {
	if f.ahead == nil {
		f.ahead = make([]int32, 0, internWindow)
	}
	end := min(pos+internWindow, len(f.jobs))
	f.ahead = f.ahead[:0]
	for q := pos; q < end; q++ {
		i := q
		if f.arrivals != nil {
			i = f.arrivals[q]
		}
		f.ahead = append(f.ahead, f.share.intern(f.jobs[i].Tenant))
	}
	f.aheadAt = pos
}

// pushLater schedules a completion or wake event carrying rec. Its Seq
// continues past the arrival block (arrival Seqs are job indices), so
// stamps stay unique across both event sources.
func (f *Facility) pushLater(at float64, kind int, rec *jobRec) {
	f.queue.Push(pdes.Event[*jobRec]{Time: at, Rank: kind, Seq: uint64(len(f.jobs)) + f.pushed, Data: rec})
	f.pushed++
}

// enqueue adds rec to its pool's pending set and the queued-work
// aggregate (the stored qwork makes the later subtraction exact).
func (f *Facility) enqueue(p *poolState, rec *jobRec) {
	rec.qwork = float64(rec.job.NP) * f.planDur(rec) * rec.factors[p.id]
	p.qWork += rec.qwork
	if f.cfg.sched == schedSort {
		p.queue = append(p.queue, rec)
		return
	}
	if rec.acct != nil {
		p.pend.push(heapEntry{key: rec.acct.key(f.share.half), gen: rec.acct.gen, rec: rec})
		return
	}
	p.pend.push(heapEntry{rec: rec})
}

// pendingLen is the pool's pending-job count on the active path.
func (f *Facility) pendingLen(p *poolState) int {
	if f.cfg.sched == schedSort {
		return len(p.queue)
	}
	return p.pend.len()
}

// complete finalises one running job: frees its slots, charges the
// tenant's decayed-usage account for the consumed slot-seconds, emits
// the outcome and recycles the record.
func (f *Facility) complete(rec *jobRec) {
	p := f.pools[rec.pool]
	p.free += rec.job.NP
	p.npRun -= rec.job.NP
	p.npEnd -= float64(rec.job.NP) * rec.end
	if f.cfg.sched == schedSort {
		for i, r := range p.running {
			if r == rec {
				p.running = append(p.running[:i], p.running[i+1:]...)
				break
			}
		}
	} else if p.id == PoolHPC {
		p.profile.remove(f.releaseAt(rec), rec.seq)
	}
	// Only fairshare reads usage, so only fairshare runs keep accounts:
	// the heap scheduler reads a non-nil acct as a fairshare key.
	if rec.acct != nil {
		f.share.charge(rec.acct, f.clock, rec.charge*float64(rec.job.NP))
	}
	if rec.state == StateKilled {
		f.met.killed.Inc()
	} else {
		f.met.completed.Inc()
	}
	f.met.waits.ObserveSeconds(rec.start - rec.job.Submit)
	if f.emit != nil {
		f.emit(Outcome{
			Job: rec.job, Seq: rec.seq, Pool: rec.pool, State: rec.state,
			Start: rec.start, End: rec.end, Wait: rec.start - rec.job.Submit,
			Service: rec.end - rec.start, Reserved: rec.reserved,
			Interruptions: rec.interruptions, LostWork: rec.lost, Cost: rec.cost,
		})
	}
	f.finished++
	f.freed = append(f.freed, rec)
}

// start dispatches rec on pool p at the current clock, computing its
// completion (and terminal state) up front: the execution leg is a pure
// function of (job, pool, spot plan), so one completion event suffices.
func (f *Facility) start(p *poolState, rec *jobRec) {
	rec.state = StateRunning
	rec.start = f.clock
	p.free -= rec.job.NP
	p.qWork -= rec.qwork
	if f.cfg.sched == schedSort {
		p.running = append(p.running, rec)
	}
	f.met.started.Inc()

	factor := rec.factors[p.id]
	base := rec.job.Runtime * factor
	limit := rec.job.Limit * factor

	switch {
	case p.id == PoolEC2 && f.cfg.Spot != nil:
		// Spot execution: outages roll progress back to the last
		// checkpoint; limits are advisory on the elastic pool.
		sr := f.cfg.Spot.run(rec.start, base, rec.job.NP)
		rec.end = sr.end
		rec.state = StateCompleted
		rec.charge = sr.billed
		rec.interruptions = sr.interruptions
		rec.lost = sr.lost
		rec.cost = float64(rec.job.NP) * sr.billed / 3600 * f.cfg.Spot.Price
		f.met.interruptions.Add(int64(sr.interruptions))
	default:
		exec := base
		state := StateCompleted
		if base > limit {
			exec, state = limit, StateKilled
		}
		rec.end = rec.start + exec
		rec.state = state
		rec.charge = exec
		rec.cost = float64(rec.job.NP) * exec / 3600 * f.cfg.Prices[p.id]
	}
	p.npRun += rec.job.NP
	p.npEnd += float64(rec.job.NP) * rec.end
	if f.cfg.sched != schedSort && p.id == PoolHPC {
		p.profile.insert(f.releaseAt(rec), rec.job.NP, rec.seq)
	}
	f.pushLater(rec.end, kindComplete, rec)
}

// releaseAt is the planning-bound release time reservations charge a
// running job with: it never frees slots before its computed end.
func (f *Facility) releaseAt(rec *jobRec) float64 {
	at := rec.start + f.planDur(rec)
	if at < rec.end {
		at = rec.end
	}
	return at
}

// planDur returns the planning bound used for reservations and backfill
// windows on the HPC partition: the job's wall limit.
func (f *Facility) planDur(rec *jobRec) float64 {
	return rec.job.Limit
}

// available reports whether the pool can start jobs at the current
// clock (the spot pool is frozen during a market outage).
func (f *Facility) available(p *poolState) bool {
	if p.id == PoolEC2 && f.cfg.Spot != nil {
		return !f.cfg.Spot.Plan.OutageAt(f.clock)
	}
	return true
}

// schedule runs one scheduling pass over pool p: start priority-order
// jobs while they fit, then (HPC only) an EASY backfill pass behind the
// blocked head's reservation.
func (f *Facility) schedule(p *poolState) {
	if f.pendingLen(p) == 0 {
		return
	}
	if !f.available(p) {
		// Frozen by a spot outage: schedule a wake at the window's end so
		// the queued jobs are revisited even if the heap otherwise drains.
		if end, ok := f.cfg.Spot.outageEndAt(f.clock); ok && p.wakeAt != end {
			p.wakeAt = end
			f.pushLater(end, kindWake, nil)
		}
		return
	}
	if f.cfg.sched == schedSort {
		f.scheduleSort(p)
		return
	}
	f.scheduleHeap(p)
}

// reserve records the head's EASY reservation: set on first block,
// refreshed downward when a later pass computes an earlier guarantee
// (completions beat planning bounds, so estimates improve for a fixed
// head), with the improvement recorded in the refinement metrics.
func (f *Facility) reserve(head *jobRec, resv float64) {
	if head.reserved == 0 {
		head.reserved = resv
		return
	}
	if resv < head.reserved {
		f.met.resvRefined.Inc()
		f.met.resvRefineBy.ObserveSeconds(head.reserved - resv)
		head.reserved = resv
	}
}

// route picks the pool an arriving job runs on.
func (f *Facility) route(rec *jobRec) Pool {
	if f.cfg.Broker == nil {
		return PoolHPC
	}
	return f.cfg.Broker.route(rec, f)
}

// estWait estimates pool p's queue wait at the current clock: total
// outstanding planned work (queued planning bounds plus running jobs'
// remaining spans) divided by the pool's slot capacity. O(1) from the
// maintained aggregates — the running remainder is Σnp·end − clock·Σnp,
// exact because completions sort before arrivals at equal times, so
// every still-running job has end > clock when a router asks.
func (f *Facility) estWait(p *poolState) float64 {
	if p.slots == 0 {
		return math.Inf(1)
	}
	work := p.qWork + (p.npEnd - f.clock*float64(p.npRun))
	if work <= 0 {
		return 0
	}
	return work / float64(p.slots)
}
