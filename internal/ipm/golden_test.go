package ipm

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// regionsProgram exercises every profiler path across several regions:
// compute, I/O, point-to-point calls in the halo loop's alternating
// Send, Send, Recv, Recv order, collectives, a return to the default
// region through Region(""), re-entry of an earlier region, and two
// regions ("idle" and "tail") entered with no activity at all.
func regionsProgram(c *mpi.Comm) error {
	np, r := c.Size(), c.Rank()
	left, right := (r-1+np)%np, (r+1)%np
	c.Compute(cpumodel.Work{Flops: 1e6 * float64(1+r%3)})
	c.AllreduceN(8)
	c.Region("input")
	c.ReadShared(1<<20, np)
	c.Region("idle")
	c.Region("halo")
	for i, n := range []int{0, 8, 1000, 4096, 70000} {
		c.ComputeSeconds(1e-5 * float64(1+(r+i)%4))
		c.SendN(left, 1, n)
		c.SendN(right, 2, n+r)
		c.RecvN(right, 1)
		c.RecvN(left, 2)
	}
	c.Region("solve")
	c.Compute(cpumodel.Work{Flops: 2e6, Bytes: 1e6})
	data := []float64{float64(r), 1, 2}
	c.Allreduce(mpi.Max, data)
	c.Barrier()
	c.AlltoallN(512)
	c.Region("")
	c.SendrecvN(right, 3, 64, left, 3)
	c.WriteShared(1<<16, np)
	c.Region("halo")
	c.SendrecvN(left, 4, 2048, right, 4)
	c.Region("tail")
	return nil
}

// renderProfile writes every query surface of a profile that the
// collector's data layout could change: the summary, the sorted region
// names, the size histogram, each region's call table and wait series
// (including a region that must stay absent), the JSON report and the
// IPM banner.
func renderProfile(t *testing.T, pr *Profile) (summary, regions, hist, full string) {
	t.Helper()
	summary = pr.String()
	regions = strings.Join(pr.RegionNames(), ",")
	sizes, counts := pr.SizeHistogram()
	hist = fmt.Sprint(sizes, counts)
	var b strings.Builder
	b.WriteString(summary + regions + "\n" + hist + "\n")
	for _, name := range append(pr.RegionNames(), "idle", "tail", "absent") {
		calls := pr.RegionCalls(name)
		cn := make([]string, 0, len(calls))
		for n := range calls {
			cn = append(cn, n)
		}
		sort.Strings(cn)
		fmt.Fprintf(&b, "region %s:", name)
		for _, n := range cn {
			fmt.Fprintf(&b, " %s=%+v", n, calls[n])
		}
		wait, queued := pr.RegionWait(name)
		fmt.Fprintf(&b, "\n wait %v\n queued %v\n", wait, queued)
	}
	if err := pr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := pr.Report(&b, "golden"); err != nil {
		t.Fatal(err)
	}
	return summary, regions, hist, b.String()
}

// goldenProfile runs fn on six DCC ranks spread over two nodes.
func goldenProfile(t *testing.T, fn func(c *mpi.Comm) error) *Profile {
	t.Helper()
	p := platform.DCC()
	pl, err := cluster.Place(p, cluster.Spec{NP: 6, Policy: cluster.Spread, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof := New(6)
	w, err := mpi.NewWorld(p, pl, mpi.WithTracer(prof), mpi.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return prof.Snapshot(res)
}

// TestProfileGolden pins the profile of a multi-region program as the
// map-based collector produced it: the summary, region names and size
// histogram verbatim, and a digest of every other query surface. A
// program with no activity at all is pinned the same way (its empty
// histogram renders as [] in JSON, not null).
func TestProfileGolden(t *testing.T) {
	_, _, _, empty := renderProfile(t, goldenProfile(t, func(c *mpi.Comm) error {
		c.Region("idle")
		return nil
	}))
	const wantEmptyDigest = `ea36a2feb5f4dd00d5b353e185ee67f4965a8896cbd1eeb58f4ee591600559b8`
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(empty))); got != wantEmptyDigest {
		t.Errorf("empty profile digest %s, want %s; full rendering:\n%s", got, wantEmptyDigest, empty)
	}

	summary, regions, hist, full := renderProfile(t, goldenProfile(t, regionsProgram))
	const (
		wantSummary = `ranks=6 wall=0.200s comm=5.7% io=92.1% imbal=21.1%
  Allreduce    count=12       time=0.0153s bytes=192
  Alltoall     count=6        time=0.0025s bytes=18432
  Barrier      count=6        time=0.0009s bytes=0
  Recv         count=60       time=0.0109s bytes=901323
  Send         count=60       time=0.0370s bytes=901323
  Sendrecv     count=12       time=0.0018s bytes=25344
`
		wantRegions = `(main),halo,input,solve`
		wantHist    = `[1 2 4 8 16 32 128 1024 4096 8192 131072] [22 2 4 22 10 6 6 24 26 10 24]`
		wantDigest  = `c64e27f2667ff3515f9eac5c8c7fc0597de4c98ec2e497a01c0a94233694fe61`
	)
	if summary != wantSummary {
		t.Errorf("summary:\n got %q\nwant %q", summary, wantSummary)
	}
	if regions != wantRegions {
		t.Errorf("region names: got %q, want %q", regions, wantRegions)
	}
	if hist != wantHist {
		t.Errorf("size histogram: got %q, want %q", hist, wantHist)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(full))); got != wantDigest {
		t.Errorf("profile digest %s, want %s; full rendering:\n%s", got, wantDigest, full)
	}
}

// TestProfilerCallAllocFree requires the profiler's per-event methods to
// allocate nothing once every call name and region has been seen.
func TestProfilerCallAllocFree(t *testing.T) {
	prof := New(2)
	cycle := func() {
		for _, region := range []string{"halo", "solve", ""} {
			prof.Region(1, region, 0)
			prof.Advance(1, "compute", 0, 1e-3)
			for _, name := range []string{"Send", "Send", "Recv", "Recv", "Allreduce"} {
				prof.Call(1, mpi.CallRecord{Name: name, Bytes: 4096, Dur: 1e-5, Wait: 1e-6, Peer: 0})
			}
			prof.Advance(1, "io", 0, 1e-4)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warmed Call/Advance/Region cycle allocates %v times, want 0", n)
	}
}
