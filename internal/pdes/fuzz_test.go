package pdes

import (
	"testing"
)

// FuzzEventQueue drives the queue with an arbitrary interleaving of
// pushes and pops decoded from the fuzz input and checks it against a
// model: every pop returns a live event that is minimal (under
// Event.Less) among the events currently queued, and a full drain at the
// end comes out exactly sorted.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{255, 0, 255, 0, 7, 7, 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue
		var seq uint64
		live := map[Event]int{} // multiset of queued events
		nlive := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%4 == 0 && nlive > 0 {
				e := q.Pop()
				if live[e] == 0 {
					t.Fatalf("popped %+v which is not queued", e)
				}
				live[e]--
				nlive--
				if m, ok := q.Min(); ok && m.Less(e) {
					t.Fatalf("popped %+v but %+v was queued and smaller", e, m)
				}
			} else {
				// Narrow domains on time and rank so ties are common and
				// the (rank, seq) tie-break carries real weight.
				e := Event{Time: float64(arg % 5), Rank: int(arg % 7), Seq: seq}
				seq++
				q.Push(e)
				live[e]++
				nlive++
			}
		}
		if q.Len() != nlive {
			t.Fatalf("queue length %d, model has %d live events", q.Len(), nlive)
		}
		var prev Event
		for i := 0; q.Len() > 0; i++ {
			e := q.Pop()
			if i > 0 && e.Less(prev) {
				t.Fatalf("drain out of order: %+v after %+v", e, prev)
			}
			if live[e] == 0 {
				t.Fatalf("drained %+v which is not queued", e)
			}
			live[e]--
			prev = e
		}
		for e, n := range live {
			if n != 0 {
				t.Fatalf("event %+v pushed but never popped", e)
			}
		}
	})
}
