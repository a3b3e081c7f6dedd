package pdes

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedRef returns the events sorted under Event.Less — the queue's
// reference semantics.
func sortedRef(evs []Event) []Event {
	ref := append([]Event(nil), evs...)
	sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
	return ref
}

// drain pops every event.
func drain(q *Queue) []Event {
	var out []Event
	for q.Len() > 0 {
		out = append(out, q.Pop())
	}
	return out
}

func TestQueueDrainsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var evs []Event
	for i := 0; i < 500; i++ {
		evs = append(evs, Event{
			Time: float64(rng.Intn(8)), // few distinct times: force ties
			Rank: rng.Intn(16),
			Seq:  uint64(i),
		})
	}
	var q Queue
	for _, e := range evs {
		q.Push(e)
	}
	got := drain(&q)
	ref := sortedRef(evs)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("pop %d: got %+v, want %+v", i, got[i], ref[i])
		}
	}
}

func TestQueueTieBreaking(t *testing.T) {
	var q Queue
	// Same time everywhere: order must fall back to (rank, seq).
	q.Push(Event{Time: 1, Rank: 3, Seq: 0})
	q.Push(Event{Time: 1, Rank: 0, Seq: 2})
	q.Push(Event{Time: 1, Rank: 0, Seq: 1})
	q.Push(Event{Time: 1, Rank: 2, Seq: 3})
	want := []Event{{1, 0, 1}, {1, 0, 2}, {1, 2, 3}, {1, 3, 0}}
	got := drain(&q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestQueueMin(t *testing.T) {
	var q Queue
	if _, ok := q.Min(); ok {
		t.Fatal("Min on empty queue reported ok")
	}
	q.Push(Event{Time: 2, Rank: 0, Seq: 0})
	q.Push(Event{Time: 1, Rank: 1, Seq: 1})
	if min, ok := q.Min(); !ok || min != (Event{1, 1, 1}) {
		t.Fatalf("Min = %+v, %v", min, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Min must not remove: len %d", q.Len())
	}
}

// TestQueueQuickProperties drives the queue with generated event sets and
// checks the two properties every engine run depends on: the drain order
// is exactly the sorted order (deterministic tie-breaking included), and
// interleaved push/pop never yields an event out of order.
func TestQueueQuickProperties(t *testing.T) {
	drainIsSorted := func(times []uint8, ranks []uint8) bool {
		n := len(times)
		if len(ranks) < n {
			n = len(ranks)
		}
		evs := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			evs = append(evs, Event{Time: float64(times[i] % 5), Rank: int(ranks[i] % 7), Seq: uint64(i)})
		}
		var q Queue
		for _, e := range evs {
			q.Push(e)
		}
		got := drain(&q)
		ref := sortedRef(evs)
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(drainIsSorted, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	interleavedMonotone := func(ops []uint16) bool {
		var q Queue
		var seq uint64
		live := map[Event]bool{}
		var lastPop Event
		popped := false
		for _, op := range ops {
			if op%3 == 0 && q.Len() > 0 {
				e := q.Pop()
				if !live[e] {
					return false // popped an event never pushed (or twice)
				}
				delete(live, e)
				// Among the events present at pop time, e must be minimal.
				if m, ok := q.Min(); ok && m.Less(e) {
					return false
				}
				lastPop, popped = e, true
				_ = lastPop
				_ = popped
			} else {
				e := Event{Time: float64(op % 4), Rank: int(op % 5), Seq: seq}
				seq++
				q.Push(e)
				live[e] = true
			}
		}
		return true
	}
	if err := quick.Check(interleavedMonotone, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateAllocFree: the facility pushes and pops one event
// per job transition, so on a warmed queue (backing array already grown)
// Push, Pop and Min allocate nothing.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted on the uninstrumented build")
	}
	rng := rand.New(rand.NewSource(2))
	evs := make([]Event, 256)
	for i := range evs {
		evs[i] = Event{Time: float64(rng.Intn(32)), Rank: rng.Intn(4), Seq: uint64(i)}
	}
	var q Queue
	cycle := func() {
		for _, e := range evs {
			q.Push(e)
		}
		for q.Len() > 0 {
			q.Min()
			q.Pop()
		}
	}
	cycle()
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Errorf("warmed queue: %v allocs per %d push/min/pop cycles; want 0", a, len(evs))
	}
}
