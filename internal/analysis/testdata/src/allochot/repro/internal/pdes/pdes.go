// Package pdes is the allochot fixture's dependency stub: its queue
// allocates, and the fact must cross the package boundary into the mpi
// stub's hot functions.
package pdes

// Queue is a growable event queue.
type Queue struct {
	h []int
}

// Push allocates and its key collides with the real module's embedded
// hot-list on purpose: the embedded list must fire here, and the
// Allocates fact must cross into the mpi stub.
func (q *Queue) Push(e int) {
	q.h = append(q.h, e) // want `allocation in hot function Queue.Push: append may grow its backing array`
}

// PushPooled is the audited twin: the allow clears its Allocates fact,
// so hot callers across the boundary stay clean.
func (q *Queue) PushPooled(e int) {
	//lint:allow reprolint/allochot amortised growth; fixture twin of the pooled queue
	q.h = append(q.h, e)
}

// Len is allocation-free.
func (q *Queue) Len() int { return len(q.h) }
