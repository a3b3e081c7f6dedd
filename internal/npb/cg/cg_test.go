package cg

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
	if res.Time < 210 || res.Time > 280 {
		t.Fatalf("CG.B.1 on DCC = %.1f s, want ~244.9", res.Time)
	}
}

func TestSkeletonDCCNUMADip(t *testing.T) {
	// The paper: CG speedup on DCC drops at 8 processes (NUMA masked).
	// Efficiency at np=8 on DCC must be clearly below Vayu's.
	eff := func(p *platform.Platform) float64 {
		t1 := skelTime(t, p, 1)
		t8 := skelTime(t, p, 8)
		return t1 / t8 / 8
	}
	dcc := eff(platform.DCC())
	vayu := eff(platform.Vayu())
	if dcc >= vayu-0.1 {
		t.Fatalf("CG 8-rank efficiency dcc=%.2f vayu=%.2f; want a visible DCC NUMA dip", dcc, vayu)
	}
}

func skelTime(t *testing.T, p *platform.Platform, np int) float64 {
	t.Helper()
	res, err := mpi.RunOn(p, np, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassB)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

func TestSkeletonVayuScalesBetterThanDCC(t *testing.T) {
	speedup := func(p *platform.Platform) float64 {
		return skelTime(t, p, 1) / skelTime(t, p, 32)
	}
	v, d := speedup(platform.Vayu()), speedup(platform.DCC())
	if v <= d {
		t.Fatalf("CG speedup at 32: vayu=%.1f dcc=%.1f; Vayu must scale better", v, d)
	}
}
