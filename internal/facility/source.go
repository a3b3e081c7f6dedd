package facility

import (
	"cmp"
	"slices"
)

// JobSource is a workload RunStream consumes in arrival order, one
// window of arrivals at a time. There are two: a generated *Workload,
// and Jobs over a slice (traces, SWF archives, Run). The set is closed:
// a source's window filler is unexported.
type JobSource interface {
	// Len returns the number of jobs.
	Len() int
	// open starts a pass over the jobs in arrival order. The returned
	// filler writes the next len(win) arrivals into win on each call,
	// each with its dense tenant index if tenants is set.
	open(tenants bool) func(win []arrival)
}

// arrival is one job of an arrival window: the job, its index in the
// source (its arrival event's and its outcome's Seq), its tenant's
// dense index, which names the tenant's fairshare account, and (with
// fairshare) that account, which refill resolves for the whole window
// at once so that the accounts' cache misses overlap.
type arrival struct {
	job    Job
	seq    int
	tenant int32
	acct   *tenantUsage
}

// sliceJobs is the JobSource over a job slice.
type sliceJobs []Job

// Jobs returns the source that feeds jobs to RunStream, identified by
// their slice indices. Equal submit times keep slice order (the
// oracle's stable-sort convention).
func Jobs(jobs []Job) JobSource { return sliceJobs(jobs) }

// Len returns the number of jobs.
func (s sliceJobs) Len() int { return len(s) }

// open walks the jobs in (Submit, index) order. A tenant's index is the
// order of its first arrival, so it depends only on when the tenant
// first arrives, never on its name: a bijective relabeling of tenants
// leaves every index, and the schedule, unchanged.
func (s sliceJobs) open(tenants bool) func([]arrival) {
	order := arrivalOrder(s)
	var index map[string]int32
	if tenants {
		index = map[string]int32{}
	}
	pos := 0
	return func(win []arrival) {
		for k := range win {
			i := pos + k
			if order != nil {
				i = order[i]
			}
			a := arrival{job: s[i], seq: i}
			if index != nil {
				t, ok := index[a.job.Tenant]
				if !ok {
					t = int32(len(index))
					index[a.job.Tenant] = t
				}
				a.tenant = t
			}
			win[k] = a
		}
		pos += len(win)
	}
}

// arrivalOrder returns nil when jobs is already non-decreasing in Submit
// (every generated workload), else the job indices stably sorted by
// Submit: the (Submit, index) order arrivals are processed in. Jobs are
// validated only as their window fills, so the sort may see a NaN;
// cmp.Compare orders NaNs first, and the run fails on the first window.
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
