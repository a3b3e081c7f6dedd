// Package sched runs artefact-regeneration jobs on a bounded worker pool
// with dependency ordering, fail-fast error handling, per-job wall-clock
// and virtual-time accounting, and a content-addressed on-disk result
// cache. Every paper artefact is a pure function of (experiment ID,
// params, seed, model version), so regenerations are embarrassingly
// parallel and an unchanged artefact can be served from the cache instead
// of re-simulated. The experiments registry builds Jobs; cmd/repro and
// experiments.RunChecks execute them through Run.
package sched

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Ctx is the per-job execution context handed to a Job's Run function.
type Ctx struct {
	meter *sim.Meter
}

// Meter returns the job's virtual-time accumulator. Generators thread it
// into core.RunSpec so every simulated second is attributed to the job.
func (c *Ctx) Meter() *sim.Meter { return c.meter }

// Job is one schedulable unit of work producing named output files.
type Job struct {
	ID    string
	After []string // IDs that must complete successfully first
	// Key, when non-nil, makes the job's output cacheable under that key.
	Key *Key
	// Run computes the job's output files (name -> content). It must be a
	// pure function of the job's identity: two invocations return
	// byte-identical maps regardless of scheduling.
	Run func(ctx *Ctx) (map[string][]byte, error)
}

// Status classifies a job's outcome.
type Status int

const (
	// Done: the job ran and produced its files.
	Done Status = iota
	// Cached: the files were served from the result cache; no simulation ran.
	Cached
	// Failed: the job's Run returned an error or panicked.
	Failed
	// Skipped: the job never ran — a dependency failed or the scheduler
	// aborted after an earlier failure (fail-fast).
	Skipped
)

// String returns the lowercase status name.
func (s Status) String() string {
	switch s {
	case Done:
		return "done"
	case Cached:
		return "cached"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Result reports one job's outcome.
type Result struct {
	ID     string
	Status Status
	Files  map[string][]byte
	Err    error // non-nil iff Failed, or the skip reason for Skipped
	// Wall is the real time the job occupied a worker (≈0 for Skipped).
	Wall time.Duration
	// Virtual is the simulated seconds attributed to the job via its
	// meter; for Cached results it is the value recorded by the cold run.
	Virtual float64
	// CacheErr records a best-effort cache write that failed; the job
	// itself still counts as Done.
	CacheErr error
}

// EventType distinguishes scheduler notifications.
type EventType int

const (
	// JobStarted fires when a worker picks the job up.
	JobStarted EventType = iota
	// JobFinished fires with the job's Result (any status, including Skipped).
	JobFinished
)

// Event is one scheduler notification, delivered serially.
type Event struct {
	Type   EventType
	ID     string
	Result *Result // set for JobFinished
}

// Options configures a Run.
type Options struct {
	// Workers bounds the number of jobs executing concurrently;
	// 0 or negative means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves and stores results for jobs with a Key.
	Cache *Cache
	// KeepGoing disables fail-fast: after a failure, independent jobs
	// still run (dependents of the failed job are skipped regardless).
	KeepGoing bool
	// OnEvent, when non-nil, receives serialized progress notifications.
	OnEvent func(Event)
	// Metrics, when non-nil, receives scheduler instrumentation: job
	// counts by status, cache hit/miss, per-job wall and virtual
	// latency, queue depth and worker utilization.
	Metrics *obs.Registry
}

// Run executes the jobs respecting dependencies and returns one Result
// per job in submission order. It returns an error if the job graph is
// invalid (nil results) or if any job failed (alongside the full partial
// results, so callers can report what did complete).
func Run(jobs []Job, opt Options) ([]Result, error) {
	n := len(jobs)
	index := make(map[string]int, n)
	for i, j := range jobs {
		if j.ID == "" {
			return nil, fmt.Errorf("sched: job %d has an empty ID", i)
		}
		if _, dup := index[j.ID]; dup {
			return nil, fmt.Errorf("sched: duplicate job ID %q", j.ID)
		}
		if j.Run == nil {
			return nil, fmt.Errorf("sched: job %q has no Run function", j.ID)
		}
		index[j.ID] = i
	}
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, j := range jobs {
		for _, dep := range j.After {
			di, ok := index[dep]
			if !ok {
				return nil, fmt.Errorf("sched: job %q depends on unknown job %q", j.ID, dep)
			}
			if di == i {
				return nil, fmt.Errorf("sched: job %q depends on itself", j.ID)
			}
			indeg[i]++
			dependents[di] = append(dependents[di], i)
		}
	}
	if err := checkAcyclic(jobs, index); err != nil {
		return nil, err
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	s := &state{
		jobs:       jobs,
		indeg:      indeg,
		dependents: dependents,
		results:    make([]Result, n),
		settled:    make([]bool, n),
		opt:        opt,
	}
	if opt.Metrics != nil {
		s.met = newSchedMetrics(opt.Metrics)
		s.met.workers.Set(int64(workers))
	}
	s.cond = sync.NewCond(&s.mu)
	for i, d := range indeg {
		if d == 0 {
			s.ready = append(s.ready, i)
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()

	var firstFail *Result
	for i := range s.results {
		if s.results[i].Status == Failed && firstFail == nil {
			firstFail = &s.results[i]
		}
	}
	if firstFail != nil {
		return s.results, fmt.Errorf("sched: job %s failed: %w", firstFail.ID, firstFail.Err)
	}
	return s.results, nil
}

// state is the shared coordination structure of one Run.
type state struct {
	jobs       []Job
	dependents [][]int

	mu       sync.Mutex
	cond     *sync.Cond
	indeg    []int
	ready    []int // indices ready to execute, in submission order
	settled  []bool
	nsettled int
	aborting bool // a job failed and KeepGoing is off: stop launching

	eventMu sync.Mutex
	results []Result
	opt     Options
	met     schedMetrics
}

// work is one worker's loop: claim a ready job, execute it, settle it.
func (s *state) work() {
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && s.nsettled < len(s.jobs) {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		i := s.ready[0]
		s.ready = s.ready[1:]
		aborting := s.aborting
		s.met.queueDepth.Observe(int64(len(s.ready)))
		s.mu.Unlock()

		var res Result
		if aborting {
			res = Result{ID: s.jobs[i].ID, Status: Skipped,
				Err: fmt.Errorf("sched: skipped after earlier failure")}
		} else {
			s.emit(Event{Type: JobStarted, ID: s.jobs[i].ID})
			res = s.execute(&s.jobs[i])
		}
		s.settle(i, res)
	}
}

// execute runs one job: cache lookup, Run with panic recovery, cache store.
func (s *state) execute(j *Job) Result {
	//lint:allow reprolint/detwall volatile job wall latency; never reaches artefact bytes
	start := time.Now()
	if j.Key != nil && s.opt.Cache != nil {
		if files, virtual, ok := s.opt.Cache.Get(*j.Key); ok {
			s.met.cacheHits.Inc()
			return Result{ID: j.ID, Status: Cached, Files: files,
				//lint:allow reprolint/detwall volatile job wall latency; never reaches artefact bytes
				Wall: time.Since(start), Virtual: virtual}
		}
		s.met.cacheMisses.Inc()
	}
	ctx := &Ctx{meter: &sim.Meter{}}
	files, err := runRecovered(j, ctx)
	//lint:allow reprolint/detwall volatile job wall latency; never reaches artefact bytes
	res := Result{ID: j.ID, Wall: time.Since(start), Virtual: ctx.meter.Total()}
	s.met.jobWall.Observe(res.Wall.Nanoseconds())
	s.met.busyNS.Add(res.Wall.Nanoseconds())
	s.met.jobVirtual.ObserveSeconds(res.Virtual)
	s.met.virtualNS.AddSeconds(res.Virtual)
	if err != nil {
		res.Status = Failed
		res.Err = err
		return res
	}
	res.Status = Done
	res.Files = files
	if j.Key != nil && s.opt.Cache != nil {
		res.CacheErr = s.opt.Cache.Put(*j.Key, files, res.Virtual)
	}
	return res
}

// runRecovered invokes j.Run, converting a panic into an error so one
// broken generator fails its job instead of the whole process.
func runRecovered(j *Job, ctx *Ctx) (files map[string][]byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sched: job %s panicked: %v", j.ID, p)
		}
	}()
	return j.Run(ctx)
}

// settle records a result, releases or skips dependents and wakes workers.
func (s *state) settle(i int, res Result) {
	switch res.Status {
	case Done:
		s.met.done.Inc()
	case Cached:
		s.met.cached.Inc()
	case Failed:
		s.met.failed.Inc()
	case Skipped:
		s.met.skipped.Inc()
	}
	s.mu.Lock()
	s.results[i] = res
	s.settled[i] = true
	s.nsettled++
	ok := res.Status == Done || res.Status == Cached
	if res.Status == Failed && !s.opt.KeepGoing {
		s.aborting = true
	}
	var skipped []int
	if ok {
		var freed []int
		for _, d := range s.dependents[i] {
			s.indeg[d]--
			if s.indeg[d] == 0 {
				freed = append(freed, d)
			}
		}
		sort.Ints(freed)
		s.ready = append(s.ready, freed...)
	} else {
		skipped = s.skipDependents(i, res.ID, nil)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.emit(Event{Type: JobFinished, ID: res.ID, Result: &res})
	for _, d := range skipped {
		r := s.results[d] // settled: no concurrent writer
		s.emit(Event{Type: JobFinished, ID: r.ID, Result: &r})
	}
}

// skipDependents transitively settles every dependent of i as Skipped and
// returns their indices. Caller holds s.mu.
func (s *state) skipDependents(i int, cause string, acc []int) []int {
	for _, d := range s.dependents[i] {
		if s.settled[d] {
			continue
		}
		s.results[d] = Result{ID: s.jobs[d].ID, Status: Skipped,
			Err: fmt.Errorf("sched: dependency %s did not complete", cause)}
		s.met.skipped.Inc()
		s.settled[d] = true
		s.nsettled++
		acc = append(acc, d)
		acc = s.skipDependents(d, cause, acc)
	}
	return acc
}

// emit delivers one event; events are serialized so OnEvent needs no
// locking of its own.
func (s *state) emit(e Event) {
	if s.opt.OnEvent == nil {
		return
	}
	s.eventMu.Lock()
	defer s.eventMu.Unlock()
	s.opt.OnEvent(e)
}

// checkAcyclic rejects dependency cycles with a readable path.
func checkAcyclic(jobs []Job, index map[string]int) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(jobs))
	var path []string
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		path = append(path, jobs[i].ID)
		for _, dep := range jobs[i].After {
			di := index[dep]
			switch color[di] {
			case grey:
				return fmt.Errorf("sched: dependency cycle: %v -> %s", path, dep)
			case white:
				if err := visit(di); err != nil {
					return err
				}
			}
		}
		path = path[:len(path)-1]
		color[i] = black
		return nil
	}
	for i := range jobs {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}
