// Package pdes provides the deterministic event queue behind the batch
// facility's discrete-event loop (package facility): a binary min-heap of
// events ordered by virtual time with (rank, seq) tie-breaking, so the
// pop sequence — and therefore every observable result — depends only on
// the events pushed, never on wall-clock scheduling. Each event carries
// a caller-typed payload that the order ignores, so the caller needs no
// side table from sequence numbers to records. The facility keeps only
// in-flight events here (completions and wakes) and merges its arrivals
// in from the job slice under the same order, via Min.
package pdes

// Event is one scheduled occurrence. Time is its virtual time; Rank
// orders events that share a time (the facility stores the event kind
// there, so completions precede arrivals); Seq is a caller-issued
// creation stamp that makes the order total. All three must be
// deterministic functions of the simulated program, never of wall-clock
// scheduling. Data is the caller's payload; the order ignores it.
type Event[T any] struct {
	Time float64
	Rank int
	Seq  uint64
	Data T
}

// Less is the queue's strict total order: virtual time, then rank, then
// creation stamp. Two distinct events never compare equal because Seq is
// unique per queue.
func (e Event[T]) Less(o Event[T]) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Rank != o.Rank {
		return e.Rank < o.Rank
	}
	return e.Seq < o.Seq
}

// Queue is a binary min-heap of events under Event.Less. The zero value
// is an empty queue ready for use. It is not synchronised.
type Queue[T any] struct {
	h []Event[T]
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts an event.
func (q *Queue[T]) Push(e Event[T]) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].Less(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the minimum event. It panics on an empty queue
// (a caller invariant violation, not a recoverable condition).
func (q *Queue[T]) Pop() Event[T] {
	min := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Event[T]{} // release the payload reference
	q.h = q.h[:last]
	q.siftDown(0)
	return min
}

// Min returns the minimum event without removing it; ok is false when the
// queue is empty.
func (q *Queue[T]) Min() (min Event[T], ok bool) {
	if len(q.h) == 0 {
		return Event[T]{}, false
	}
	return q.h[0], true
}

func (q *Queue[T]) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.h[l].Less(q.h[smallest]) {
			smallest = l
		}
		if r < n && q.h[r].Less(q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
