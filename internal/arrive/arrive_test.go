package arrive

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// profileWorkload runs a synthetic workload on Vayu and profiles it.
func profileWorkload(t *testing.T, np, collectives int, flops float64, ioBytes int64) *WorkloadProfile {
	t.Helper()
	out, err := core.Execute(core.RunSpec{Platform: platform.Vayu(), NP: np}, func(c *mpi.Comm) error {
		if ioBytes > 0 {
			c.ReadShared(ioBytes, np)
		}
		for i := 0; i < 20; i++ {
			c.Compute(cpumodel.Work{Flops: flops / 20 / float64(np)})
			for k := 0; k < collectives/20; k++ {
				c.AllreduceN(8)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	return FromProfile("synthetic", out.Profile, platform.Vayu(), pl.MaxRanksPerNode())
}

func TestClassify(t *testing.T) {
	compute := profileWorkload(t, 8, 0, 1e12, 0)
	if got := compute.Classify(); got != ComputeBound {
		t.Fatalf("pure compute classified %v", got)
	}
	if !compute.CloudFriendly(platform.EC2(), 1.5) {
		t.Fatal("compute-bound workloads are cloud candidates")
	}
	comm := profileWorkload(t, 16, 50000, 1e9, 0)
	if got := comm.Classify(); got != CommBound {
		t.Fatalf("chatty workload classified %v", got)
	}
	if comm.CloudFriendly(platform.EC2(), 1.5) {
		t.Fatal("communication-bound workloads should not burst")
	}
	io := profileWorkload(t, 2, 0, 1e8, 64<<30)
	if got := io.Classify(); got != IOBound {
		t.Fatalf("io-heavy workload classified %v", got)
	}
}

func TestPredictComputeScalesWithClock(t *testing.T) {
	w := profileWorkload(t, 8, 0, 1e12, 0)
	v := w.Predict(platform.Vayu())
	d := w.Predict(platform.DCC())
	if !v.Feasible || !d.Feasible {
		t.Fatalf("both should be feasible: %+v %+v", v, d)
	}
	ratio := d.Compute / v.Compute
	// Clock ratio x DCC overhead: 2.93/2.27 * 1.06 ~ 1.37.
	if ratio < 1.2 || ratio > 1.55 {
		t.Fatalf("DCC/Vayu compute prediction ratio = %.2f, want ~1.37", ratio)
	}
}

func TestPredictCommPenalisesSlowNetworks(t *testing.T) {
	w := profileWorkload(t, 32, 20000, 1e10, 0)
	v := w.Predict(platform.Vayu())
	d := w.Predict(platform.DCC())
	if d.Comm < 5*v.Comm {
		t.Fatalf("DCC comm prediction %.2f should dwarf Vayu's %.2f", d.Comm, v.Comm)
	}
}

func TestPredictInfeasible(t *testing.T) {
	w := profileWorkload(t, 8, 0, 1e10, 0)
	w.NP = 1000 // beyond DCC and EC2 capacity
	d := w.Predict(platform.DCC())
	if d.Feasible || d.Reason == "" {
		t.Fatalf("1000 ranks on DCC should be infeasible: %+v", d)
	}
	if w.Predict(platform.Vayu()); !w.Predict(platform.Vayu()).Feasible {
		t.Fatal("Vayu holds 1000 ranks")
	}
}

func TestRecommendOrdering(t *testing.T) {
	// A compute-bound job: Vayu should win (fastest cores), infeasible
	// platforms must sort last.
	w := profileWorkload(t, 8, 10, 1e12, 0)
	preds := w.Recommend(platform.All())
	if preds[0].Platform != "vayu" {
		t.Fatalf("best platform = %s, want vayu", preds[0].Platform)
	}
	for i := 1; i < len(preds); i++ {
		if preds[i-1].Feasible == preds[i].Feasible && preds[i-1].Total > preds[i].Total {
			t.Fatal("recommendations not sorted by predicted time")
		}
	}
	if preds[0].String() == "" {
		t.Fatal("prediction should render")
	}
}
