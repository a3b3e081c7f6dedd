package mpi_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/platform"
)

// TestDeadlockDiagnosis checks that a default world fails the moment it
// quiesces — with each blocked rank's wait predicate in the error —
// instead of timing out against the wall-clock watchdog, and that a
// rank's own error outranks the deadlock it leaves its peers in. Ranks
// parked at a collective's rendezvous count as blocked and are named
// with the collective they wait in.
func TestDeadlockDiagnosis(t *testing.T) {
	cases := []struct {
		name string
		np   int
		fn   func(c *mpi.Comm) error
		want string
	}{
		{"orphan-receive", 4, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				c.RecvN(3, 99) // rank 3 never sends: deadlock once all others exit
			}
			return nil
		}, "mpi: deadlock: 1 rank(s) blocked with no runnable peer: rank 0 waiting on (src=3, tag=99)"},
		{"wildcard-cycle", 2, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				c.RecvN(1, 7)
			} else {
				c.RecvN(mpi.AnySource, mpi.AnyTag)
			}
			return nil
		}, "mpi: deadlock: 2 rank(s) blocked with no runnable peer:" +
			" rank 0 waiting on (src=1, tag=7) rank 1 waiting on (src=-1, tag=-1)"},
		{"truncated-ring", 8, func(c *mpi.Comm) error {
			c.RecvN((c.Rank()+1)%8, 1) // a receive ring with no sender
			return nil
		}, "mpi: deadlock: 8 rank(s) blocked with no runnable peer:" +
			" rank 0 waiting on (src=1, tag=1) rank 1 waiting on (src=2, tag=1)" +
			" rank 2 waiting on (src=3, tag=1) rank 3 waiting on (src=4, tag=1) ... (4 more)"},
		{"rank-error-strands-peers", 3, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				return fmt.Errorf("boom") // returns before sending to its peers
			}
			c.RecvN(0, 5)
			return nil
		}, "mpi: rank 0: boom"},
		{"skipped-collective", 4, func(c *mpi.Comm) error {
			if c.Rank() == 3 {
				c.RecvN(0, 7) // skips the allreduce its peers park in
			} else {
				c.AllreduceN(4)
			}
			return nil
		}, "mpi: deadlock: 4 rank(s) blocked with no runnable peer:" +
			" rank 0 waiting in Allreduce (ctx=1, 3/4 entered) rank 1 waiting in Allreduce (ctx=1, 3/4 entered)" +
			" rank 2 waiting in Allreduce (ctx=1, 3/4 entered) rank 3 waiting on (src=0, tag=7)"},
		{"skipped-ring-exchange", 4, func(c *mpi.Comm) error {
			if c.Rank() != 2 {
				c.RingExchangeN(1<<10, 3) // rank 2 returns without its halo
			}
			return nil
		}, "mpi: deadlock: 3 rank(s) blocked with no runnable peer:" +
			" rank 0 waiting in RingExchange (ctx=1, 3/4 entered) rank 1 waiting in RingExchange (ctx=1, 3/4 entered)" +
			" rank 3 waiting in RingExchange (ctx=1, 3/4 entered)"},
		{"mismatched-collectives", 2, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				c.AllreduceN(4)
			} else {
				c.Barrier()
			}
			return nil
		}, "mpi: deadlock: 2 rank(s) blocked with no runnable peer:" +
			" rank 0 waiting in Allreduce (ctx=1, 2/2 entered) rank 1 waiting in Barrier (ctx=1, 2/2 entered)"},
		{"rank-error-before-collective", 3, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				return fmt.Errorf("boom") // never enters the barrier
			}
			c.Barrier()
			return nil
		}, "mpi: rank 0: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A deadlock must be caught at quiescence; the short watchdog
			// turns a miss into a wrong error instead of a long hang.
			_, err := mpi.RunOn(platform.Vayu(), tc.np, tc.fn, mpi.WithTimeout(time.Minute))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzDeadlockDiagnosis runs arbitrary send/receive scripts on a 4-rank
// world — including ones that deadlock part-way — and requires that (a)
// every run ends without the watchdog: the scoreboard must catch each
// quiescent state, and (b) two runs of one script agree exactly, on the
// rank clocks or on the deadlock diagnosis. Explicit (source, tag)
// receives make each script a Kahn process network, so its maximal
// progress, and hence the set of stuck receives, is unique.
func FuzzDeadlockDiagnosis(f *testing.F) {
	// A clean ring, a two-rank cycle, an orphan receive, tie-heavy traffic.
	f.Add([]byte{0, 0, 1, 1, 1, 1, 1, 0, 2, 2, 1, 2, 2, 0, 3, 3, 1, 3, 3, 0, 0})
	f.Add([]byte{0, 1, 1, 1, 1, 0})
	f.Add([]byte{2, 1, 3})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 2, 0, 3, 3, 1, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const np = 4
		scripts := decodeScripts(data, np)
		ref := runScripts(scripts)
		if strings.Contains(ref, "real-time limit") {
			t.Fatalf("script %x hit the watchdog: %s", data, ref)
		}
		if got := runScripts(scripts); got != ref {
			t.Fatalf("reruns of %x diverged:\n ref %s\n got %s", data, ref, got)
		}
	})
}

// scriptOp is one step of a fuzzed rank program: a send to or a receive
// from peer on tag, or (kind 2) a compute step.
type scriptOp struct {
	kind, peer, tag int
}

// decodeScripts turns fuzz bytes into np rank scripts, three bytes per
// operation (owner, kind, peer/tag); peers are redirected off self so
// every input is a valid, if possibly deadlocking, program.
func decodeScripts(data []byte, np int) [][]scriptOp {
	scripts := make([][]scriptOp, np)
	for i := 0; i+2 < len(data); i += 3 {
		rank := int(data[i]) % np
		peer := int(data[i+2]) % np
		if peer == rank {
			peer = (peer + 1) % np
		}
		op := scriptOp{kind: int(data[i+1]) % 3, peer: peer, tag: int(data[i+2]/4) % 2}
		scripts[rank] = append(scripts[rank], op)
	}
	return scripts
}

// runScripts executes the scripts and renders the outcome: the rank
// clocks on success, the error text otherwise.
func runScripts(scripts [][]scriptOp) string {
	res, err := mpi.RunOn(platform.Vayu(), len(scripts), func(c *mpi.Comm) error {
		for _, op := range scripts[c.Rank()] {
			switch op.kind {
			case 0:
				c.SendN(op.peer, op.tag, 64)
			case 1:
				c.RecvN(op.peer, op.tag)
			default:
				c.ComputeSeconds(0.25)
			}
		}
		return nil
	})
	if err != nil {
		return err.Error()
	}
	return fmt.Sprint(res.RankTimes)
}
