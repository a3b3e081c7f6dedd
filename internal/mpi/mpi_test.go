package mpi

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// run executes fn on np ranks of the given platform, failing the test on
// error.
func run(t *testing.T, p *platform.Platform, np int, fn func(c *Comm) error) *Result {
	t.Helper()
	res, err := RunOn(p, np, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSendRecvDataIntegrity(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1.5, 2.5, 3.5})
		} else {
			buf := make([]float64, 3)
			n := c.Recv(0, 7, buf)
			if n != 3 || buf[0] != 1.5 || buf[1] != 2.5 || buf[2] != 3.5 {
				return fmt.Errorf("got %v (n=%d)", buf, n)
			}
		}
		return nil
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{42}
			c.Send(1, 0, data)
			data[0] = -1 // must not affect the in-flight message
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				return fmt.Errorf("message corrupted by sender reuse: %v", buf[0])
			}
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf) // out of order by tag
			if buf[0] != 2 {
				return fmt.Errorf("tag 2 got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				return fmt.Errorf("tag 1 got %v", buf[0])
			}
		}
		return nil
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != float64(i) {
					return fmt.Errorf("message %d arrived out of order: %v", i, buf[0])
				}
			}
		}
		return nil
	})
}

func TestIntAndComplexPayloads(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendInts(1, 0, []int{9, 8})
			c.SendComplex(1, 1, []complex128{2 + 3i})
		} else {
			ib := make([]int, 2)
			c.RecvInts(0, 0, ib)
			if ib[0] != 9 || ib[1] != 8 {
				return fmt.Errorf("ints: %v", ib)
			}
			cb := make([]complex128, 1)
			c.RecvComplex(0, 1, cb)
			if cb[0] != 2+3i {
				return fmt.Errorf("complex: %v", cb)
			}
		}
		return nil
	})
}

func TestPhantomMessages(t *testing.T) {
	run(t, platform.DCC(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 4096)
		} else {
			if n := c.RecvN(0, 0); n != 4096 {
				return fmt.Errorf("phantom size = %d", n)
			}
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	run(t, platform.Vayu(), 1, func(c *Comm) error {
		c.Send(0, 0, []float64{7})
		buf := make([]float64, 1)
		c.Recv(0, 0, buf)
		if buf[0] != 7 {
			return fmt.Errorf("self message got %v", buf[0])
		}
		return nil
	})
}

func TestSendrecvRing(t *testing.T) {
	const np = 8
	run(t, platform.Vayu(), np, func(c *Comm) error {
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		// Each rank sends a rank-specific size, so the size received
		// names the sender.
		if got := c.SendrecvN(right, 5, 8*(c.Rank()+1), left, 5); got != 8*(left+1) {
			return fmt.Errorf("ring got %d bytes, want %d", got, 8*(left+1))
		}
		return nil
	})
}

func TestNonblocking(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, 10)
			for i := range reqs {
				reqs[i] = c.IsendN(1, i, 8*(i+1))
			}
			c.Waitall(reqs...)
		} else {
			// Post the receives in reverse tag order: matching is by tag,
			// not by arrival.
			reqs := make([]*Request, 10)
			for i := len(reqs) - 1; i >= 0; i-- {
				reqs[i] = c.IrecvN(0, i)
			}
			c.Waitall(reqs...)
			for i, r := range reqs {
				if r.bytes != 8*(i+1) {
					return fmt.Errorf("irecv %d got %d bytes, want %d", i, r.bytes, 8*(i+1))
				}
			}
		}
		return nil
	})
}

func TestWaitIdempotent(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 8)
		} else {
			// A second Wait on a completed request must return at once:
			// were it to match again, it would block on a message that is
			// never sent and fail the run as a deadlock.
			r := c.IrecvN(0, 0)
			c.Wait(r)
			c.Wait(r)
			if !r.done || r.bytes != 8 {
				return fmt.Errorf("after two Waits: done=%v bytes=%d", r.done, r.bytes)
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	// The binomial tree must reach every rank but the root exactly once,
	// from any root.
	for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				root := 2 % np
				recvs := c.st.tally.recvs
				c.BcastN(root, 4096)
				want := int64(1)
				if c.Rank() == root {
					want = 0
				}
				if got := c.st.tally.recvs - recvs; got != want {
					return fmt.Errorf("rank %d received %d messages, want %d", c.Rank(), got, want)
				}
				return nil
			})
		})
	}
}

func TestReduce(t *testing.T) {
	for _, np := range []int{1, 2, 5, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				// reduceBody is the first half of Allreduce at a size that
				// is not a power of two.
				data := []float64{float64(c.Rank() + 1)}
				c.reduceBody(Sum, 0, data)
				if c.Rank() == 0 {
					want := float64(np*(np+1)) / 2
					if data[0] != want {
						return fmt.Errorf("reduce sum = %v, want %v", data[0], want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, np := range []int{2, 4, 6, 8, 16} { // mix of pow2 and not
		for _, op := range []Op{Sum, Max, Min} {
			np, op := np, op
			t.Run(fmt.Sprintf("np=%d/%v", np, op), func(t *testing.T) {
				run(t, platform.Vayu(), np, func(c *Comm) error {
					data := []float64{float64(c.Rank() + 1), -float64(c.Rank())}
					c.Allreduce(op, data)
					var want0, want1 float64
					switch op {
					case Sum:
						want0, want1 = float64(np*(np+1))/2, -float64(np*(np-1))/2
					case Max:
						want0, want1 = float64(np), 0
					case Min:
						want0, want1 = 1, -float64(np-1)
					}
					if data[0] != want0 || data[1] != want1 {
						return fmt.Errorf("rank %d: allreduce(%v) = %v, want [%v %v]",
							c.Rank(), op, data, want0, want1)
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceMatchesSerialProperty(t *testing.T) {
	// Property: Allreduce(Sum) equals the serial sum for random vectors.
	prop := func(seed uint8, lenRaw uint8) bool {
		np := int(seed%7) + 2
		n := int(lenRaw%16) + 1
		vals := make([][]float64, np)
		for r := range vals {
			vals[r] = make([]float64, n)
			for i := range vals[r] {
				vals[r][i] = float64((int(seed)+r*31+i*7)%100) / 3
			}
		}
		want := make([]float64, n)
		for _, v := range vals {
			for i := range want {
				want[i] += v[i]
			}
		}
		ok := true
		_, err := RunOn(platform.Vayu(), np, func(c *Comm) error {
			data := append([]float64(nil), vals[c.Rank()]...)
			c.Allreduce(Sum, data)
			for i := range data {
				if diff := data[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllgather(t *testing.T) {
	// The ring allgather gives every rank each peer's n-byte block once:
	// p-1 receives of n bytes, on the schedule path as on the message path.
	const n = 24
	for _, np := range []int{1, 3, 4, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				recvs, bytes := c.st.tally.recvs, c.st.tally.recvBytes
				c.AllgatherN(n)
				c.Clock() // the tally is read directly: evaluate the logged allgather first
				recvs, bytes = c.st.tally.recvs-recvs, c.st.tally.recvBytes-bytes
				if recvs != int64(np-1) || bytes != int64(n*(np-1)) {
					return fmt.Errorf("rank %d received %d messages (%d bytes), want %d (%d bytes)",
						c.Rank(), recvs, bytes, np-1, n*(np-1))
				}
				return nil
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	const blk = 3
	for _, np := range []int{2, 3, 4, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				send := make([]complex128, np*blk)
				for i := range send {
					send[i] = complex(float64(c.Rank()), float64(i))
				}
				recv := make([]complex128, np*blk)
				c.AlltoallComplex(send, recv)
				for s := 0; s < np; s++ {
					for k := 0; k < blk; k++ {
						if want := complex(float64(s), float64(c.Rank()*blk+k)); recv[s*blk+k] != want {
							return fmt.Errorf("rank %d: from %d element %d got %v, want %v",
								c.Rank(), s, k, recv[s*blk+k], want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoallComplex(t *testing.T) {
	const np = 4
	run(t, platform.Vayu(), np, func(c *Comm) error {
		send := make([]complex128, np)
		for d := range send {
			send[d] = complex(float64(c.Rank()), float64(d))
		}
		recv := make([]complex128, np)
		c.AlltoallComplex(send, recv)
		for s := 0; s < np; s++ {
			if recv[s] != complex(float64(s), float64(c.Rank())) {
				return fmt.Errorf("rank %d: from %d got %v", c.Rank(), s, recv[s])
			}
		}
		return nil
	})
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	// After a barrier every rank's clock must be >= the pre-barrier
	// maximum (no rank can leave before the slowest arrives).
	const np = 8
	maxBefore := make([]float64, np)
	after := make([]float64, np)
	run(t, platform.Vayu(), np, func(c *Comm) error {
		if c.Rank() == 3 {
			c.ComputeSeconds(1.0) // straggler
		}
		maxBefore[c.Rank()] = c.Clock()
		c.Barrier()
		after[c.Rank()] = c.Clock()
		return nil
	})
	var mx float64
	for _, v := range maxBefore {
		if v > mx {
			mx = v
		}
	}
	for r, v := range after {
		if v < mx {
			t.Fatalf("rank %d left the barrier at %v, before straggler arrived at %v", r, v, mx)
		}
	}
}

func TestPhantomCollectives(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8, 12} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.DCC(), np, func(c *Comm) error {
				c.AllreduceN(8)
				c.BcastN(0, 1024)
				c.AllgatherN(64)
				c.AlltoallN(256)
				c.Barrier()
				return nil
			})
		})
	}
}

func TestSplit(t *testing.T) {
	// Split 8 ranks into 2 groups by parity; verify ranks, sizes and that
	// collectives work inside the split.
	run(t, platform.Vayu(), 8, func(c *Comm) error {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 4 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		data := []float64{float64(c.Rank())}
		sub.Allreduce(Sum, data)
		// Even ranks: 0+2+4+6=12; odd: 1+3+5+7=16.
		want := 12.0
		if color == 1 {
			want = 16
		}
		if data[0] != want {
			return fmt.Errorf("split allreduce = %v, want %v", data[0], want)
		}
		return nil
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, platform.Vayu(), 4, func(c *Comm) error {
		// Reverse the order via keys.
		sub := c.Split(0, -c.Rank())
		if want := 3 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitContextIsolation(t *testing.T) {
	// Messages on a split communicator must not match receives on the
	// parent even with identical src/tag.
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			sub.Send(1, 5, []float64{111})
			c.Send(1, 5, []float64{222})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 5, buf) // parent first: must get 222 despite arriving second
			if buf[0] != 222 {
				return fmt.Errorf("parent recv got %v, want 222", buf[0])
			}
			sub.Recv(0, 5, buf)
			if buf[0] != 111 {
				return fmt.Errorf("sub recv got %v, want 111", buf[0])
			}
		}
		return nil
	})
}

func TestMisusePanicsBecomeErrors(t *testing.T) {
	cases := map[string]func(c *Comm) error{
		"rank out of range": func(c *Comm) error {
			c.Send(99, 0, []float64{1})
			return nil
		},
		"negative tag": func(c *Comm) error {
			c.Send(0, -3, []float64{1})
			return nil
		},
		"truncation": func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1, 2, 3})
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
		"type mismatch": func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendInts(1, 0, []int{1})
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
		"phantom mismatch": func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendN(1, 0, 8)
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := RunOn(platform.Vayu(), 2, fn)
			if err == nil {
				t.Fatalf("%s should fail the run", name)
			}
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("error should report the panic, got: %v", err)
			}
		})
	}
}

// TestDeadlockTimesOut checks that a deadlocked world fails with the
// scoreboard's diagnosis the moment it quiesces. The watchdog is set
// beyond the test binary's default timeout, so a broken detector hangs
// the test instead of passing it through the watchdog.
func TestDeadlockTimesOut(t *testing.T) {
	pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(platform.Vayu(), pl, WithTimeout(10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 0, make([]float64, 1)) // never sent
		}
		return nil
	})
	want := "mpi: deadlock: 1 rank(s) blocked with no runnable peer: rank 0 waiting on (src=1, tag=0)"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	_, err := RunOn(platform.Vayu(), 4, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("got %v", err)
	}
}

func TestOpString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" || Min.String() != "min" {
		t.Fatal("op names wrong")
	}
	if Op(42).String() == "" {
		t.Fatal("unknown op should render")
	}
}
