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
func (e Event[T]) Less(o Event[T]) bool { return less(&e, &o) }

// less is Less on events compared in place, so the heap's sifts do not
// copy them.
func less[T any](a, b *Event[T]) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Seq < b.Seq
}

// Queue is a binary min-heap of events under Event.Less. The zero value
// is an empty queue ready for use. It is not synchronised.
//
// Both sifts move a hole rather than swapping: the displaced event is
// held aside, the events it passes shift one level into the hole, and it
// is written once where the sift stops. Because the order is total, the
// pop sequence is the same as any other correct heap's.
type Queue[T any] struct {
	h []Event[T]
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts an event.
func (q *Queue[T]) Push(e Event[T]) {
	q.h = append(q.h, e)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// Pop removes and returns the minimum event. It panics on an empty queue
// (a caller invariant violation, not a recoverable condition).
func (q *Queue[T]) Pop() Event[T] {
	h := q.h
	min := h[0]
	last := len(h) - 1
	x := h[last]
	h[last] = Event[T]{} // release the payload reference
	h = h[:last]
	q.h = h
	if last == 0 {
		return min
	}
	// Sift the hole at the root down to where x belongs.
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && less(&h[r], &h[c]) {
			c = r
		}
		if !less(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
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
