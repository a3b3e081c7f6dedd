package is

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/platform"
)

func TestRejectsNonPowerOfTwo(t *testing.T) {
	_, err := mpi.RunOn(platform.Vayu(), 3, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassS)
	})
	if err == nil {
		t.Fatal("np=3 should be rejected")
	}
}

func TestSkeletonCalibration(t *testing.T) {
	res, err := mpi.RunOn(platform.DCC(), 1, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassB)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 7 || res.Time > 10.5 {
		t.Fatalf("IS.B.1 on DCC = %.2f s, want ~8.6", res.Time)
	}
}

func TestSkeletonScalesPoorlyEverywhere(t *testing.T) {
	// The paper: "The IS benchmark is communication intensive and does not
	// scale well on any of the clusters."
	st := func(p *platform.Platform, np int) float64 {
		res, err := mpi.RunOn(p, np, func(c *mpi.Comm) error {
			return Skeleton(c, npb.ClassB)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	for _, p := range platform.All() {
		speedup := st(p, 1) / st(p, 64)
		if speedup > 40 {
			t.Errorf("%s: IS speedup at 64 = %.1f, expected far from linear", p.Name, speedup)
		}
		if speedup <= 0 {
			t.Errorf("%s: nonsensical speedup %v", p.Name, speedup)
		}
	}
}

func TestSkeletonDCCCommDominatesAt64(t *testing.T) {
	// Table II: IS on DCC at np=64 spends ~98% of walltime communicating.
	res, err := mpi.RunOn(platform.DCC(), 64, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassB)
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := res.CommTimes.Sum() / res.RankTimes.Sum()
	if frac < 0.6 {
		t.Fatalf("IS.B.64 DCC comm fraction = %.2f, want dominant (>0.6)", frac)
	}
}
