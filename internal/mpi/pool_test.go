package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/sim"
)

// withRendezvous runs body under the given eager/rendezvous threshold,
// restoring the previous global setting afterwards.
func withRendezvous(n int64, body func()) {
	prev := SetRendezvousBytes(n)
	defer SetRendezvousBytes(prev)
	body()
}

// byteTracer accumulates per-operation call counts and payload bytes —
// exactly the inputs IPM's byte accounting aggregates — so equivalence
// tests can assert pooling never changes what the profiler sees.
type byteTracer struct {
	mu    sync.Mutex
	calls map[string]int
	bytes map[string]int
}

func newByteTracer() *byteTracer {
	return &byteTracer{calls: map[string]int{}, bytes: map[string]int{}}
}

func (t *byteTracer) Call(rank int, rec CallRecord) {
	t.mu.Lock()
	t.calls[rec.Name]++
	t.bytes[rec.Name] += rec.Bytes
	t.mu.Unlock()
}

func (t *byteTracer) Advance(rank int, kind string, start, dur float64) {}
func (t *byteTracer) Region(rank int, name string, at float64)          {}

func (t *byteTracer) summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("calls=%v bytes=%v", t.calls, t.bytes)
}

// exchangeDigest runs a 4-rank workload exercising every payload type,
// point to point and through the pooled collectives, and returns a digest of all bytes received plus
// the tracer's byte accounting. The workload is deterministic in seed, so
// any divergence between pooling modes is a correctness bug.
func exchangeDigest(t *testing.T, seed uint64, n int) (digest uint64, virtual float64, accounting string) {
	t.Helper()
	const np = 4
	tr := newByteTracer()
	digests := make([]uint64, np)
	fn := func(c *Comm) error {
		r := c.Rank()
		rng := sim.NewRNG(seed).Derive(uint64(r) + 1)
		right, left := (r+1)%np, (r+np-1)%np

		f := make([]float64, n)
		for i := range f {
			f[i] = rng.Float64()
		}
		is := make([]int, n)
		for i := range is {
			is[i] = int(rng.Uint64() % 100003)
		}
		cs := make([]complex128, (n+1)/2)
		for i := range cs {
			cs[i] = complex(rng.Float64(), rng.Float64())
		}

		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}

		// Ring exchange of each payload type; sends are eager so the ring
		// cannot deadlock.
		fr := make([]float64, n)
		c.Send(right, 7, f)
		c.Recv(left, 7, fr)
		ir := make([]int, n)
		c.SendInts(right, 8, is)
		c.RecvInts(left, 8, ir)
		cr := make([]complex128, len(cs))
		c.SendComplex(right, 9, cs)
		c.RecvComplex(left, 9, cr)

		// Nonblocking phantom exchanges, receive posted first and last.
		req := c.IrecvN(left, 10)
		c.SendN(right, 10, 3*n)
		c.Wait(req)
		rq := c.IrecvN(left, 11)
		c.Wait(c.IsendN(right, 11, 5*n))
		c.Wait(rq)

		// Pooled collectives over the same data: float64 reductions
		// combined straight out of pooled payloads (recursive doubling on
		// all four ranks, reduce+broadcast on a three-rank split, whose
		// own setup is an int allgather), and the complex all-to-all.
		red := append([]float64(nil), f...)
		c.Allreduce(Sum, red)
		mx := append([]float64(nil), f...)
		c.Allreduce(Max, mx)
		color := 0
		if r == np-1 {
			color = 1
		}
		sub := c.Split(color, -r)
		red3 := append([]float64(nil), f...)
		sub.Allreduce(Sum, red3)
		ca := make([]complex128, np*len(cs))
		for i := range ca {
			ca[i] = cs[i%len(cs)] + complex(float64(r), float64(i/len(cs)))
		}
		car := make([]complex128, len(ca))
		c.AlltoallComplex(ca, car)

		for _, v := range fr {
			put(math.Float64bits(v))
		}
		for _, v := range ir {
			put(uint64(v))
		}
		for _, v := range cr {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
		put(uint64(req.bytes))
		put(uint64(rq.bytes))
		put(uint64(sub.Rank()))
		for _, s := range [][]float64{red, mx, red3} {
			for _, v := range s {
				put(math.Float64bits(v))
			}
		}
		for _, v := range car {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
		digests[r] = h.Sum64()
		return nil
	}

	p := platform.Vayu()
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(p, pl, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(h, "%016x", d)
	}
	return h.Sum64(), res.Time, tr.summary()
}

// TestPooledUnpooledEquivalence is the quick property behind the pool's
// correctness claim: for random payload sizes, the pooled plane (default
// threshold), a tiny rendezvous threshold (forcing exact-size
// ownership-transfer buffers), and pooling disabled entirely all deliver
// identical payload bytes, identical IPM byte accounting, and identical
// virtual time.
func TestPooledUnpooledEquivalence(t *testing.T) {
	type outcome struct {
		digest     uint64
		virtual    float64
		accounting string
	}
	property := func(seed uint64, sz uint16) bool {
		n := int(sz%777) + 1
		modes := []int64{DefaultRendezvousBytes, 64, 0}
		var got []outcome
		for _, mode := range modes {
			withRendezvous(mode, func() {
				d, v, acct := exchangeDigest(t, seed, n)
				got = append(got, outcome{d, v, acct})
			})
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Logf("seed=%d n=%d: threshold %d diverged from %d:\n  %+v\nvs %+v",
					seed, n, modes[i], modes[0], got[i], got[0])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCounterConcurrent hammers one inbox with concurrent
// producers and a consumer draining via exact and wildcard matches, and
// checks the O(1) maintained pending counter against a brute-force
// recount of every bucket throughout.
func TestPendingCounterConcurrent(t *testing.T) {
	const (
		producers   = 4
		perProducer = 300 // divisible by 3: each tag 0..2 gets exactly 100
		perTag      = perProducer / 3
	)
	w := &World{} // faults == nil: no quiescence scoreboard in play
	b := newInbox()

	check := func() {
		counter, brute := b.pendingDebug()
		if counter != brute {
			t.Errorf("pending counter %d != brute-force recount %d", counter, brute)
		}
	}

	var wg sync.WaitGroup
	wg.Add(producers)
	for pr := 0; pr < producers; pr++ {
		pr := pr
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m, _ := newMessage()
				m.ctx, m.src, m.tag = 1, pr, i%3
				b.put(w, m)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Exact matches first (tags 0 and 1 of every producer, quotas the
		// producers are guaranteed to eventually satisfy), then a wildcard
		// drain of the tag-2 remainder. Wildcards come last because a
		// wildcard can match anything: taken earlier it could consume a
		// message an exact quota still needs and deadlock the consumer.
		n := 0
		for round := 0; round < perTag; round++ {
			for pr := 0; pr < producers; pr++ {
				for tag := 0; tag < 2; tag++ {
					b.match(w, 1, pr, tag).release()
					if n++; n%37 == 0 {
						check()
					}
				}
			}
		}
		for i := 0; i < producers*perTag; i++ {
			m := b.match(w, 1, AnySource, AnyTag)
			if m.tag != 2 {
				t.Errorf("wildcard drain got tag %d, want 2", m.tag)
			}
			m.release()
			if n++; n%37 == 0 {
				check()
			}
		}
	}()

	wg.Wait()
	<-done
	check()
	if got := b.pending(); got != 0 {
		t.Fatalf("inbox drained but pending() = %d", got)
	}
}

// TestPendingCounterFIFO checks the counter across the put/take paths of
// a deterministic sequence: exact buckets must pop in per-(src,tag) FIFO
// order and wildcards in arrival order, with the counter exact at every
// step.
func TestPendingCounterFIFO(t *testing.T) {
	w := &World{}
	b := newInbox()
	for i := 0; i < 6; i++ {
		m, _ := newMessage()
		m.ctx, m.src, m.tag, m.bytes = 1, i%2, 5, i
		b.put(w, m)
	}
	if counter, brute := b.pendingDebug(); counter != 6 || brute != 6 {
		t.Fatalf("after 6 puts: counter=%d brute=%d", counter, brute)
	}
	// Exact match on src 0 must yield arrival order 0, 2, 4.
	for _, want := range []int{0, 2, 4} {
		m := b.match(w, 1, 0, 5)
		if m.bytes != want {
			t.Fatalf("exact match got bytes %d, want %d", m.bytes, want)
		}
		m.release()
	}
	// Wildcard drains the rest in physical arrival order: 1, 3, 5.
	for _, want := range []int{1, 3, 5} {
		m := b.match(w, 1, AnySource, AnyTag)
		if m.bytes != want {
			t.Fatalf("wildcard match got bytes %d, want %d", m.bytes, want)
		}
		m.release()
	}
	if counter, brute := b.pendingDebug(); counter != 0 || brute != 0 {
		t.Fatalf("after drain: counter=%d brute=%d", counter, brute)
	}
}

// TestPoolSafetyStress runs several worlds concurrently, each streaming
// sender-stamped payloads through the shared message pool, and verifies
// every received element. A buffer handed to two ranks at once — or
// recycled before the receiver finished reading — corrupts the stamp
// pattern; under -race (which tier-1 runs) the detector additionally
// flags any unsynchronized reuse of a leased buffer.
func TestPoolSafetyStress(t *testing.T) {
	const (
		worlds = 4
		np     = 8
		rounds = 50
		n      = 257 // odd size: pooled cap (512) exceeds length
	)
	stream := func(world int) error {
		_, err := RunOn(platform.EC2(), np, func(c *Comm) error {
			r := c.Rank()
			right, left := (r+1)%np, (r+np-1)%np
			buf := make([]float64, n)
			got := make([]float64, n)
			for round := 0; round < rounds; round++ {
				stamp := float64(world<<20 | r<<10 | round)
				for i := range buf {
					buf[i] = stamp + float64(i)/1024
				}
				c.Send(right, 42, buf)
				c.Recv(left, 42, got)
				wantStamp := float64(world<<20 | left<<10 | round)
				for i, v := range got {
					if want := wantStamp + float64(i)/1024; v != want {
						return fmt.Errorf("world %d rank %d round %d: element %d = %v, want %v (pool buffer corrupted)",
							world, r, round, i, v, want)
					}
				}
			}
			return nil
		})
		return err
	}

	var wg sync.WaitGroup
	errs := make([]error, worlds)
	wg.Add(worlds)
	for i := 0; i < worlds; i++ {
		i := i
		go func() {
			defer wg.Done()
			errs[i] = stream(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// TestRendezvousThresholdKnob pins the knob's contract: negative clamps
// to 0, the previous value round-trips, and large payloads take the
// exact-size path (capacity == length, no power-of-two padding).
func TestRendezvousThresholdKnob(t *testing.T) {
	prev := SetRendezvousBytes(-5)
	if got := RendezvousBytes(); got != 0 {
		t.Errorf("negative threshold clamps to 0, got %d", got)
	}
	if back := SetRendezvousBytes(prev); back != 0 {
		t.Errorf("swap returned %d, want 0", back)
	}
	if got := RendezvousBytes(); got != prev {
		t.Errorf("threshold not restored: %d != %d", got, prev)
	}

	withRendezvous(1024, func() {
		small := grownF64(nil, 10) // 80 B: pooled, power-of-two capacity
		if cap(small) != 16 {
			t.Errorf("pooled capacity = %d, want 16", cap(small))
		}
		big := grownF64(nil, 200) // 1600 B ≥ threshold: exact size
		if cap(big) != 200 {
			t.Errorf("rendezvous capacity = %d, want exact 200", cap(big))
		}
	})
}
