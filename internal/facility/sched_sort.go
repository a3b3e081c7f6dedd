package facility

import "sort"

// The sort-per-pass scheduler (schedSort): every pass re-sorts the
// pending queue by fairshare priority and every reservation allocates
// and sorts the running set. O(queue log queue) per pass — fine at
// 10^4 jobs, the ceiling the incremental scheduler removes — and kept
// verbatim as the oracle: the package's scheduler-parity tests require
// schedHeap to reproduce this path's start orders and digests bit for
// bit across every knob combination.

// sortQueue orders p's queue for one scheduling pass. Without fairshare
// the queue is already in (submit, seq) order — arrivals are events on
// the time-ordered heap — so FCFS needs no sort. With fairshare the key
// is (decayed usage / weight, submit, seq): usage decays at one shared
// rate, so relative tenant order only changes when usage is charged,
// and relabeling tenants cannot change the schedule (the order never
// depends on the tenant name itself — the order-invariance property).
func (f *Facility) sortQueue(p *poolState) {
	if !f.cfg.Fairshare || len(p.queue) < 2 {
		return
	}
	type keyed struct {
		usage float64
		rec   *jobRec
	}
	keys := make([]keyed, len(p.queue))
	for i, r := range p.queue {
		keys[i] = keyed{r.acct.usageAt(f.clock, f.share.half), r}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.usage != b.usage {
			return a.usage < b.usage
		}
		if a.rec.job.Submit != b.rec.job.Submit {
			return a.rec.job.Submit < b.rec.job.Submit
		}
		return a.rec.seq < b.rec.seq
	})
	for i := range keys {
		p.queue[i] = keys[i].rec
	}
}

// scheduleSort is one pass of the sort-based scheduler: sort, start
// queue-order jobs while they fit, then backfill behind the head.
func (f *Facility) scheduleSort(p *poolState) {
	f.sortQueue(p)
	for len(p.queue) > 0 && p.queue[0].job.NP <= p.free {
		rec := p.queue[0]
		p.queue = p.queue[1:]
		f.start(p, rec)
	}
	if len(p.queue) == 0 || p.id != PoolHPC || !f.cfg.Backfill {
		return
	}
	f.backfillSort(p)
}

// backfillSort is the EASY pass: compute the head's reservation from
// the running jobs' planning bounds, then start later jobs that cannot
// delay it — they either finish (by their limit) before the
// reservation, or fit in the slots the head leaves spare.
func (f *Facility) backfillSort(p *poolState) {
	head := p.queue[0]
	resv, spare := f.reservationSort(p, head)
	f.reserve(head, resv)
	depth := f.cfg.backfillDepth()
	kept := p.queue[:1]
	for i, rec := range p.queue[1:] {
		if i >= depth || p.free == 0 {
			kept = append(kept, p.queue[1+i:]...)
			break
		}
		fits := rec.job.NP <= p.free
		safe := f.clock+f.planDur(rec) <= resv || rec.job.NP <= spare
		if fits && safe {
			if f.clock+f.planDur(rec) > resv {
				spare -= rec.job.NP
			}
			f.start(p, rec)
			f.tally.backfilled++
			continue
		}
		kept = append(kept, rec)
	}
	p.queue = kept
}

// reservationSort returns the earliest time the head is guaranteed to
// fit (walking running jobs' planning-bound ends in ascending (at, seq)
// order — the same total order the heap path's release profile
// maintains), plus the slots still spare at that time after the head
// starts.
func (f *Facility) reservationSort(p *poolState, head *jobRec) (resv float64, spare int) {
	ends := make([]release, len(p.running))
	for i, r := range p.running {
		ends[i] = release{at: f.releaseAt(r), np: r.job.NP, seq: r.seq}
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].at != ends[j].at {
			return ends[i].at < ends[j].at
		}
		return ends[i].seq < ends[j].seq
	})
	free := p.free
	resv = f.clock
	for _, e := range ends {
		if free >= head.job.NP {
			break
		}
		free += e.np
		resv = e.at
	}
	return resv, free - head.job.NP
}
