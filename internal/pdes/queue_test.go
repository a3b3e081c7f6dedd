package pdes

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// testEvent carries a payload derived from its Seq, so every test can
// check that an event's Data comes back out with it.
type testEvent = Event[string]

// tag is the payload the tests attach to the event stamped seq.
func tag(seq uint64) string { return "job-" + strconv.FormatUint(seq, 10) }

// ev builds the test event (time, rank, seq) with its tag payload.
func ev(time float64, rank int, seq uint64) testEvent {
	return testEvent{Time: time, Rank: rank, Seq: seq, Data: tag(seq)}
}

// sortedRef returns the events sorted under Event.Less — the queue's
// reference semantics.
func sortedRef(evs []testEvent) []testEvent {
	ref := append([]testEvent(nil), evs...)
	sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
	return ref
}

// drain pops every event, failing the test if one lost its payload.
func drain(t *testing.T, q *Queue[string]) []testEvent {
	t.Helper()
	var out []testEvent
	for q.Len() > 0 {
		e := q.Pop()
		if e.Data != tag(e.Seq) {
			t.Fatalf("event %d popped with payload %q, want %q", e.Seq, e.Data, tag(e.Seq))
		}
		out = append(out, e)
	}
	return out
}

func TestQueueDrainsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var evs []testEvent
	for i := 0; i < 500; i++ {
		// Few distinct times: force ties.
		evs = append(evs, ev(float64(rng.Intn(8)), rng.Intn(16), uint64(i)))
	}
	var q Queue[string]
	for _, e := range evs {
		q.Push(e)
	}
	got := drain(t, &q)
	ref := sortedRef(evs)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("pop %d: got %+v, want %+v", i, got[i], ref[i])
		}
	}
}

func TestQueueTieBreaking(t *testing.T) {
	var q Queue[string]
	// Same time everywhere: order must fall back to (rank, seq).
	q.Push(ev(1, 3, 0))
	q.Push(ev(1, 0, 2))
	q.Push(ev(1, 0, 1))
	q.Push(ev(1, 2, 3))
	want := []testEvent{ev(1, 0, 1), ev(1, 0, 2), ev(1, 2, 3), ev(1, 3, 0)}
	got := drain(t, &q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestQueueMin(t *testing.T) {
	var q Queue[string]
	if _, ok := q.Min(); ok {
		t.Fatal("Min on empty queue reported ok")
	}
	q.Push(ev(2, 0, 0))
	q.Push(ev(1, 1, 1))
	if min, ok := q.Min(); !ok || min != ev(1, 1, 1) {
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
		evs := make([]testEvent, 0, n)
		for i := 0; i < n; i++ {
			evs = append(evs, ev(float64(times[i]%5), int(ranks[i]%7), uint64(i)))
		}
		var q Queue[string]
		for _, e := range evs {
			q.Push(e)
		}
		got := drain(t, &q)
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
		var q Queue[string]
		var seq uint64
		live := map[testEvent]bool{}
		for _, op := range ops {
			if op%3 == 0 && q.Len() > 0 {
				e := q.Pop()
				if !live[e] {
					return false // popped an event never pushed (or twice), or with another's payload
				}
				delete(live, e)
				// Among the events present at pop time, e must be minimal.
				if m, ok := q.Min(); ok && m.Less(e) {
					return false
				}
			} else {
				e := ev(float64(op%4), int(op%5), seq)
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
	evs := make([]testEvent, 256)
	for i := range evs {
		evs[i] = ev(float64(rng.Intn(32)), rng.Intn(4), uint64(i))
	}
	var q Queue[string]
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
