package mpi_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/platform"
)

// meterProgram is one rank program of the metering golden, with the
// platform placement it runs on.
type meterProgram struct {
	name  string
	plat  func() *platform.Platform
	np    int
	nodes int
	fn    func(c *mpi.Comm) error
}

// ringReal passes real float64 payloads of two sizes around a ring and
// then does a halo step (a send to next and a receive from prev), with
// rank-dependent compute in between so both late senders and late
// receivers occur.
func ringReal(c *mpi.Comm) error {
	np, r := c.Size(), c.Rank()
	next, prev := (r+1)%np, (r-1+np)%np
	buf := make([]float64, 512)
	for i := 0; i < 3; i++ {
		c.ComputeSeconds(1e-4 * float64(1+(r+i)%3))
		c.Send(next, 3, buf[:1+i*100])
		c.Recv(prev, 3, buf)
		c.Send(next, 4, buf[:8])
		c.Recv(prev, 4, buf)
	}
	return nil
}

// ringPhantom is ringReal with size-only messages, including one above
// the rendezvous threshold.
func ringPhantom(c *mpi.Comm) error {
	np, r := c.Size(), c.Rank()
	next, prev := (r+1)%np, (r-1+np)%np
	for i, n := range []int{0, 4, 4096, 100 << 10, 2 << 20} {
		c.ComputeSeconds(1e-4 * float64(1+(r+i)%3))
		c.SendN(next, 5, n)
		c.RecvN(prev, 5)
		c.SendrecvN(prev, 6, n/2, next, 6)
	}
	return nil
}

// everyPhantomCollective calls each phantom collective at a few sizes,
// with skewed entry so collectives see waiting ranks. Each round ends
// with point-to-point traffic: a linear gather to a rotating root and a
// pairwise all-to-all of destination-dependent sizes.
func everyPhantomCollective(c *mpi.Comm) error {
	r, p := c.Rank(), c.Size()
	for i, n := range []int{0, 8, 4096, 64 << 10} {
		c.ComputeSeconds(1e-4 * float64(1+(r*7+i)%5))
		c.Barrier()
		c.AllreduceN(n)
		c.AllgatherN(n)
		c.AlltoallN(n)
		c.BcastN(i%c.Size(), n)
		if root := (i + 1) % p; r == root {
			for src := 0; src < p; src++ {
				if src != root {
					c.RecvN(src, 7)
				}
			}
		} else {
			c.SendN(root, 7, n)
		}
		for s := 1; s < p; s++ {
			dst, src := (r+s)%p, (r-s+p)%p
			c.SendN(dst, 8, (n+dst*13)%9000)
			c.RecvN(src, 8)
		}
	}
	return nil
}

// meterLine renders every stable registry value plus the count of the
// volatile inbox-depth histogram (its buckets depend on interleaving; its
// count is one per delivered message and is not).
func meterLine(reg *obs.Registry) string {
	snap := reg.Snapshot(true)
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		m := snap[name]
		switch {
		case name == "mpi_inbox_depth":
			fmt.Fprintf(&b, "%s count=%d\n", name, m.Count)
		case m.Volatile:
		case m.Kind == "histogram":
			fmt.Fprintf(&b, "%s count=%d sum=%d", name, m.Count, m.Sum)
			les := make([]string, 0, len(m.Buckets))
			for le := range m.Buckets {
				les = append(les, le)
			}
			sort.Slice(les, func(i, j int) bool {
				a, _ := strconv.ParseInt(les[i], 10, 64)
				b, _ := strconv.ParseInt(les[j], 10, 64)
				return a < b
			})
			for _, le := range les {
				fmt.Fprintf(&b, " le%s=%d", le, m.Buckets[le])
			}
			b.WriteByte('\n')
		default:
			fmt.Fprintf(&b, "%s %d\n", name, m.Value)
		}
	}
	return b.String()
}

// worldMetricsGolden holds every stable mpi registry value (and the
// inbox-depth count) of each metering program. The values were captured
// with per-message atomic metering, so they also hold batched metering
// to per-event parity.
var worldMetricsGolden = map[string]string{
	"ring-real": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 30
mpi_inbox_depth count=30
mpi_message_bytes count=30 sum=13080 le15=5 le127=15 le1023=5 le2047=5
mpi_recv_bytes_total 13080
mpi_recv_queued_ns_total 889112
mpi_recv_wait_ns_total 2134836
mpi_recvs_total 30
mpi_rendezvous_total 0
mpi_send_bytes_total 13080
mpi_sends_total 30
time 0.0011747747600894542
`,
	"ring-phantom": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 40
mpi_inbox_depth count=50
mpi_message_bytes count=50 sum=16527390 le0=10 le3=5 le7=5 le4095=5 le8191=5 le65535=5 le131071=5 le2097151=5 le4194303=5
mpi_recv_bytes_total 16527390
mpi_recv_queued_ns_total 222314440
mpi_recv_wait_ns_total 235900494
mpi_recvs_total 50
mpi_rendezvous_total 10
mpi_send_bytes_total 16527390
mpi_sends_total 50
time 0.19351360216888544
`,
	"collectives-p6": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 512
mpi_inbox_depth count=160
mpi_message_bytes count=512 sum=5774300 le0=157 le15=90 le31=10 le63=25 le127=10 le4095=30 le8191=110 le131071=80
mpi_recv_bytes_total 5774300
mpi_recv_queued_ns_total 49669470
mpi_recv_wait_ns_total 135132441
mpi_recvs_total 512
mpi_rendezvous_total 0
mpi_send_bytes_total 5774300
mpi_sends_total 512
time 0.04143117890997242
`,
	"collectives-p8": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 920
mpi_inbox_depth count=280
mpi_message_bytes count=920 sum=10828032 le0=253 le15=164 le31=14 le63=35 le127=42 le4095=56 le8191=206 le131071=150
mpi_recv_bytes_total 10828032
mpi_recv_queued_ns_total 8020849
mpi_recv_wait_ns_total 10646716
mpi_recvs_total 920
mpi_rendezvous_total 0
mpi_send_bytes_total 10828032
mpi_sends_total 920
time 0.0036943383829482336
`,
	"ring-real/degraded": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 30
mpi_inbox_depth count=30
mpi_message_bytes count=30 sum=13080 le15=5 le127=15 le1023=5 le2047=5
mpi_recv_bytes_total 13080
mpi_recv_queued_ns_total 693827
mpi_recv_wait_ns_total 4203924
mpi_recvs_total 30
mpi_rendezvous_total 0
mpi_send_bytes_total 13080
mpi_sends_total 30
time 0.0016515362193494226
`,
	"ring-phantom/degraded": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 40
mpi_inbox_depth count=50
mpi_message_bytes count=50 sum=16527390 le0=10 le3=5 le7=5 le4095=5 le8191=5 le65535=5 le131071=5 le2097151=5 le4194303=5
mpi_recv_bytes_total 16527390
mpi_recv_queued_ns_total 272286555
mpi_recv_wait_ns_total 276323577
mpi_recvs_total 50
mpi_rendezvous_total 10
mpi_send_bytes_total 16527390
mpi_sends_total 50
time 0.2117699787355185
`,
	"collectives-p6/degraded": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 512
mpi_inbox_depth count=512
mpi_message_bytes count=512 sum=5774300 le0=157 le15=90 le31=10 le63=25 le127=10 le4095=30 le8191=110 le131071=80
mpi_recv_bytes_total 5774300
mpi_recv_queued_ns_total 50822250
mpi_recv_wait_ns_total 147777422
mpi_recvs_total 512
mpi_rendezvous_total 0
mpi_send_bytes_total 5774300
mpi_sends_total 512
time 0.04353867566447326
`,
	"collectives-p8/degraded": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 920
mpi_inbox_depth count=920
mpi_message_bytes count=920 sum=10828032 le0=253 le15=164 le31=14 le63=35 le127=42 le4095=56 le8191=206 le131071=150
mpi_recv_bytes_total 10828032
mpi_recv_queued_ns_total 8866667
mpi_recv_wait_ns_total 13899874
mpi_recvs_total 920
mpi_rendezvous_total 0
mpi_send_bytes_total 10828032
mpi_sends_total 920
time 0.005362114661783838
`,
	"deadlock": `fault_checkpoints_total 0
fault_lost_work_ns_total 0
fault_ranks_lost_total 0
fault_restart_overhead_ns_total 0
fault_restarts_total 0
io_checkpoint_bytes_total 0
io_commit_stall_ns_total 0
mpi_eager_total 40
mpi_inbox_depth count=40
mpi_message_bytes count=48 sum=13221976 le0=8 le3=4 le7=4 le15=8 le4095=4 le8191=4 le65535=4 le131071=4 le2097151=4 le4194303=4
mpi_recv_bytes_total 13221976
mpi_recv_queued_ns_total 4889910
mpi_recv_wait_ns_total 6291797
mpi_recvs_total 48
mpi_rendezvous_total 8
mpi_send_bytes_total 13221976
mpi_sends_total 48
error mpi: deadlock: 1 rank(s) blocked with no runnable peer: rank 0 waiting on (src=3, tag=99)
`,
	"resilient-preempted": `fault_checkpoints_total 5
fault_lost_work_ns_total 54805494
fault_ranks_lost_total 2
fault_restart_overhead_ns_total 30000000000
fault_restarts_total 1
io_checkpoint_bytes_total 335544320
io_commit_stall_ns_total 0
mpi_eager_total 1094
mpi_inbox_depth count=1094
mpi_message_bytes count=1094 sum=1014400 le15=848 le8191=246
mpi_recv_bytes_total 1006176
mpi_recv_queued_ns_total 13729802078
mpi_recv_wait_ns_total 13700519140
mpi_recvs_total 1088
mpi_rendezvous_total 0
mpi_send_bytes_total 1014400
mpi_sends_total 1094
time 46.52997440660216
`,
}

// TestWorldMetricsGolden pins what World metering reports — message and
// byte counts, eager/rendezvous split, wait and queued virtual time, the
// message-size histogram, fault and checkpoint counters — for real and
// phantom point-to-point traffic, every phantom collective, the same
// programs under a link-degrading fault plan, a deadlocked world and a
// resilient run with a preemption. The final virtual time is pinned too,
// since the NIC-share model feeds every arrival.
func TestWorldMetricsGolden(t *testing.T) {
	degrade := &fault.Plan{Degradations: []netmodel.Degradation{
		{Start: 0.0002, End: 0.004, LatencyFactor: 3, BandwidthFactor: 5},
	}}
	progs := []meterProgram{
		{"ring-real", platform.EC2, 5, 2, ringReal},
		{"ring-phantom", platform.DCC, 5, 2, ringPhantom},
		{"collectives-p6", platform.DCC, 6, 3, everyPhantomCollective},
		{"collectives-p8", platform.Vayu, 8, 3, everyPhantomCollective},
	}
	type runCase struct {
		name  string
		prog  meterProgram
		plan  *fault.Plan
		resil bool
	}
	var cases []runCase
	for _, p := range progs {
		cases = append(cases, runCase{name: p.name, prog: p})
	}
	for _, p := range progs {
		cases = append(cases, runCase{name: p.name + "/degraded", prog: p, plan: degrade})
	}
	cases = append(cases,
		runCase{name: "deadlock", prog: meterProgram{"deadlock", platform.EC2, 4, 2, func(c *mpi.Comm) error {
			if err := ringPhantom(c); err != nil {
				return err
			}
			c.AllreduceN(8)
			if c.Rank() == 0 {
				c.RecvN(3, 99) // never sent
			}
			return nil
		}}},
		runCase{name: "resilient-preempted", resil: true,
			prog: meterProgram{"resilient", platform.DCC, 8, 4, stepApp(30, 5)},
			plan: &fault.Plan{
				Preemptions:  []fault.Preemption{{Node: 2, At: 3.0}},
				Degradations: []netmodel.Degradation{{Start: 1, End: 2, LatencyFactor: 2, BandwidthFactor: 4}},
			}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog.plat()
			pl, err := cluster.Place(p, cluster.Spec{NP: tc.prog.np, Policy: cluster.Spread, Nodes: tc.prog.nodes})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			w, err := mpi.NewWorld(p, pl, mpi.WithMetrics(reg), mpi.WithFaults(tc.plan), mpi.WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			var res *mpi.Result
			if tc.resil {
				res, _, err = w.RunResilient(mpi.ResilientConfig{Plan: tc.plan}, tc.prog.fn)
			} else {
				res, err = w.Run(tc.prog.fn)
			}
			got := meterLine(reg)
			if res != nil {
				got += "time " + strconv.FormatFloat(res.Time, 'g', -1, 64) + "\n"
			} else {
				got += "error " + err.Error() + "\n"
			}
			if want := worldMetricsGolden[tc.name]; got != want {
				t.Errorf("metering drifted:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
