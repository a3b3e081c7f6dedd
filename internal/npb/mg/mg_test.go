package mg

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/platform"
)

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		16: {4, 2, 2},
		32: {4, 4, 2},
		64: {4, 4, 4},
	}
	for np, want := range cases {
		px, py, pz := factor3(np)
		if px*py*pz != np {
			t.Fatalf("np=%d: %d*%d*%d != np", np, px, py, pz)
		}
		got := [3]int{px, py, pz}
		if got != want {
			t.Fatalf("np=%d: factors %v, want %v", np, got, want)
		}
	}
}

func TestRejectsBadNP(t *testing.T) {
	_, err := mpi.RunOn(platform.Vayu(), 6, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassS)
	})
	if err == nil {
		t.Fatal("np=6 should be rejected")
	}
}

func TestSkeletonCalibration(t *testing.T) {
	res, err := mpi.RunOn(platform.DCC(), 1, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassB)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 60 || res.Time > 85 {
		t.Fatalf("MG.B.1 on DCC = %.1f s, want ~72", res.Time)
	}
}

func TestSkeletonVayuScalesBest(t *testing.T) {
	st := func(p *platform.Platform, np int) float64 {
		res, err := mpi.RunOn(p, np, func(c *mpi.Comm) error {
			return Skeleton(c, npb.ClassB)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	v := st(platform.Vayu(), 1) / st(platform.Vayu(), 64)
	d := st(platform.DCC(), 1) / st(platform.DCC(), 64)
	if v <= d {
		t.Fatalf("MG speedup at 64: vayu=%.1f dcc=%.1f; Vayu must lead", v, d)
	}
	if v < 20 {
		t.Fatalf("Vayu MG speedup at 64 = %.1f, want strong scaling", v)
	}
}
