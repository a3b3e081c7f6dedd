package suite

import (
	"repro/internal/cluster"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/platform"
)

func skelTime(t *testing.T, name string, p *platform.Platform, np int, class npb.Class) float64 {
	t.Helper()
	fn, err := Skeleton(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.RunOn(p, np, func(c *mpi.Comm) error { return fn(c, class) })
	if err != nil {
		t.Fatalf("%s np=%d on %s: %v", name, np, p.Name, err)
	}
	return res.Time
}

func TestAllSkeletonsRunAt64(t *testing.T) {
	for _, name := range npb.Names() {
		counts := npb.ProcCounts(name, 64)
		np := counts[len(counts)-1]
		for _, p := range platform.All() {
			if d := skelTime(t, name, p, np, npb.ClassB); d <= 0 {
				t.Errorf("%s.B.%d on %s: non-positive time %v", name, np, p.Name, d)
			}
		}
	}
}

func TestSerialCalibrationAllKernels(t *testing.T) {
	// Figure 3: class-B serial DCC walltimes.
	wants := map[string]float64{
		"bt": 1696.9, "ep": 141.5, "cg": 244.9, "ft": 327.6,
		"is": 8.6, "lu": 1514.7, "mg": 72.0, "sp": 1936.1,
	}
	for name, want := range wants {
		got := skelTime(t, name, platform.DCC(), 1, npb.ClassB)
		if got < 0.85*want || got > 1.20*want {
			t.Errorf("%s.B.1 on DCC = %.1f s, want ~%.1f", name, got, want)
		}
	}
}

func TestFig3NormalisationShape(t *testing.T) {
	// Figure 3: Vayu and EC2 serial times normalised to DCC sit well below
	// 1 (faster CPU), around the 2.27/2.93 clock ratio.
	for _, name := range npb.Names() {
		d := skelTime(t, name, platform.DCC(), 1, npb.ClassB)
		v := skelTime(t, name, platform.Vayu(), 1, npb.ClassB)
		e := skelTime(t, name, platform.EC2(), 1, npb.ClassB)
		if rv := v / d; rv < 0.6 || rv > 0.95 {
			t.Errorf("%s: Vayu/DCC serial ratio = %.2f, want ~0.77", name, rv)
		}
		if re := e / d; re < 0.6 || re > 1.0 {
			t.Errorf("%s: EC2/DCC serial ratio = %.2f, want ~0.8", name, re)
		}
	}
}

func TestLUPipelineScalesOnVayu(t *testing.T) {
	t1 := skelTime(t, "lu", platform.Vayu(), 1, npb.ClassB)
	t32 := skelTime(t, "lu", platform.Vayu(), 32, npb.ClassB)
	if sp := t1 / t32; sp < 16 {
		t.Fatalf("LU speedup at 32 on Vayu = %.1f, want decent pipeline scaling", sp)
	}
}

func TestBTSPSquareCountsOnly(t *testing.T) {
	for _, name := range []string{"bt", "sp"} {
		fn, err := Skeleton(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = mpi.RunOn(platform.Vayu(), 8, func(c *mpi.Comm) error { return fn(c, npb.ClassS) })
		if err == nil {
			t.Errorf("%s with np=8 should fail (square counts only)", name)
		}
	}
}

func TestUnknownKernel(t *testing.T) {
	if _, err := Skeleton("zz"); err == nil {
		t.Fatal("unknown kernel should error")
	}
}

func TestFullRunnersVerify(t *testing.T) {
	for name, fn := range Fulls {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			var out *FullResult
			_, err := mpi.RunOn(platform.Vayu(), 4, func(c *mpi.Comm) error {
				r, err := fn(c, npb.ClassS)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					out = r
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// EP has official references and must verify; FT carries a
			// self-golden that the harness registers (see
			// TestRegisterGoldensEnablesVerification), so here it must at
			// least produce a result and a message.
			if name == "ep" && !out.Verified {
				t.Fatalf("EP class S must verify: %s", out.VerifyMsg)
			}
			if out.VerifyMsg == "" || out.Time <= 0 {
				t.Fatalf("incomplete result: %+v", out)
			}
		})
	}
}

func TestDCCDipAt16MatchesPaper(t *testing.T) {
	// The paper: "Particularly for DCC, we see performance dropping from 8
	// processes to 16 processes" (first inter-node step) for the
	// communication-heavy kernels. Efficiency must drop sharply at 16.
	for _, name := range []string{"ft", "mg", "is"} {
		t8 := skelTime(t, name, platform.DCC(), 8, npb.ClassB)
		t16 := skelTime(t, name, platform.DCC(), 16, npb.ClassB)
		if t16 < t8*0.75 {
			t.Errorf("%s on DCC: t16=%.1f vs t8=%.1f — expected little or negative gain crossing nodes", name, t16, t8)
		}
	}
}

func TestEC2DipAt16MatchesPaper(t *testing.T) {
	// "the EC2 cluster drops in performance at 16 cores rather than the
	// expected 32" — HyperThreading oversubscription on one node.
	for _, name := range []string{"ft", "cg"} {
		t8 := skelTime(t, name, platform.EC2(), 8, npb.ClassB)
		t16 := skelTime(t, name, platform.EC2(), 16, npb.ClassB)
		eff := t8 / t16 / 2 // efficiency of the 8->16 doubling
		if eff > 0.75 {
			t.Errorf("%s on EC2: 8->16 scaling efficiency %.2f, want depressed (<0.75)", name, eff)
		}
	}
}

// TestNoLeakedMessages verifies the conservation invariant: after every
// kernel's skeleton completes, no sent message remains unmatched.
func TestNoLeakedMessages(t *testing.T) {
	for _, name := range npb.Names() {
		counts := npb.ProcCounts(name, 16)
		np := counts[len(counts)-1]
		fn, err := Skeleton(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cluster.Place(platform.DCC(), cluster.Spec{NP: np})
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(platform.DCC(), pl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(func(c *mpi.Comm) error { return fn(c, npb.ClassA) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := w.Pending(); p != 0 {
			t.Errorf("%s.%d: %d unmatched messages leaked", name, np, p)
		}
	}
}

// TestSkeletonsDeterministic verifies bit-reproducibility across repeated
// runs for every kernel.
func TestSkeletonsDeterministic(t *testing.T) {
	for _, name := range npb.Names() {
		counts := npb.ProcCounts(name, 16)
		np := counts[len(counts)-1]
		a := skelTime(t, name, platform.EC2(), np, npb.ClassA)
		b := skelTime(t, name, platform.EC2(), np, npb.ClassA)
		if a != b {
			t.Errorf("%s.%d: run times differ across identical runs: %v vs %v", name, np, a, b)
		}
	}
}

func TestRegisterGoldensEnablesVerification(t *testing.T) {
	if err := RegisterGoldens(npb.ClassS); err != nil {
		t.Fatal(err)
	}
	// A parallel run of FT must now verify against its serial golden.
	var out *FullResult
	_, err := mpi.RunOn(platform.Vayu(), 4, func(c *mpi.Comm) error {
		r, err := Fulls["ft"](c, npb.ClassS)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Errorf("ft class S should verify against its serial golden: %s", out.VerifyMsg)
	}
	// Idempotent.
	if err := RegisterGoldens(npb.ClassS); err != nil {
		t.Fatal(err)
	}
}
