package ft

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/platform"
)

func TestFFT1DKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] is all ones; of [1,1,1,1] is [4,0,0,0].
	a := []complex128{1, 0, 0, 0}
	fft1d(a, -1)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta FFT[%d] = %v", i, v)
		}
	}
	b := []complex128{1, 1, 1, 1}
	fft1d(b, -1)
	if cmplx.Abs(b[0]-4) > 1e-12 || cmplx.Abs(b[1]) > 1e-12 {
		t.Fatalf("const FFT = %v", b)
	}
}

func TestFFT1DRoundtrip(t *testing.T) {
	g := npb.NewLCG(7)
	a := make([]complex128, 64)
	orig := make([]complex128, 64)
	for i := range a {
		a[i] = complex(g.Next(), g.Next())
		orig[i] = a[i]
	}
	fft1d(a, -1)
	fft1d(a, 1)
	for i := range a {
		if cmplx.Abs(a[i]/complex(64, 0)-orig[i]) > 1e-12 {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
}

func TestFFT1DParseval(t *testing.T) {
	g := npb.NewLCG(9)
	n := 128
	a := make([]complex128, n)
	var sumT float64
	for i := range a {
		a[i] = complex(g.Next()-0.5, g.Next()-0.5)
		sumT += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	fft1d(a, -1)
	var sumF float64
	for _, v := range a {
		sumF += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(sumF/float64(n)-sumT) > 1e-9*sumT {
		t.Fatalf("Parseval violated: %v vs %v", sumF/float64(n), sumT)
	}
}

func runFT(t *testing.T, np int, class npb.Class) *Result {
	t.Helper()
	var out *Result
	_, err := mpi.RunOn(platform.Vayu(), np, func(c *mpi.Comm) error {
		r, err := Run(c, class)
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
	return out
}

func TestSerialChecksumsFinite(t *testing.T) {
	r := runFT(t, 1, npb.ClassS)
	if len(r.Checksums) != npb.FTParamsFor(npb.ClassS).Niter {
		t.Fatalf("got %d checksums", len(r.Checksums))
	}
	for i, cs := range r.Checksums {
		if cmplx.IsNaN(cs) || cmplx.IsInf(cs) || cmplx.Abs(cs) == 0 {
			t.Fatalf("checksum %d = %v", i, cs)
		}
	}
	// Diffusion decays the field: checksum magnitudes must not grow
	// unboundedly; successive sums stay the same order of magnitude.
	for i := 1; i < len(r.Checksums); i++ {
		ratio := cmplx.Abs(r.Checksums[i]) / cmplx.Abs(r.Checksums[i-1])
		if ratio > 2 || ratio < 0.2 {
			t.Fatalf("checksum jumped by %vx between iterations %d and %d", ratio, i, i+1)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := runFT(t, 1, npb.ClassS)
	for _, np := range []int{2, 4, 8} {
		par := runFT(t, np, npb.ClassS)
		for i := range serial.Checksums {
			diff := cmplx.Abs(par.Checksums[i] - serial.Checksums[i])
			if diff > 1e-9*cmplx.Abs(serial.Checksums[i]) {
				t.Fatalf("np=%d iteration %d: %v != %v", np, i+1, par.Checksums[i], serial.Checksums[i])
			}
		}
	}
}

func TestGoldenVerification(t *testing.T) {
	serial := runFT(t, 1, npb.ClassS)
	SetReference(npb.ClassS, serial.Checksums)
	again := runFT(t, 4, npb.ClassS)
	if !again.Verified {
		t.Fatalf("golden verification failed: %s", again.VerifyMsg)
	}
	bad := append([]complex128(nil), serial.Checksums...)
	bad[0] *= 1.01
	SetReference(npb.ClassS, bad)
	if r := runFT(t, 2, npb.ClassS); r.Verified {
		t.Fatal("corrupted golden should fail")
	}
	delete(checksumReference, npb.ClassS)
}

func TestInvalidProcessCounts(t *testing.T) {
	_, err := mpi.RunOn(platform.Vayu(), 3, func(c *mpi.Comm) error {
		_, err := Run(c, npb.ClassS)
		return err
	})
	if err == nil {
		t.Fatal("np=3 should be rejected")
	}
}

// TestEntryPointsAcceptSameNP: the Skeleton that regenerates the
// figures must refuse every decomposition the full math refuses, or it
// times runs that cannot exist. Every power of two up to 256 ranks
// covers both of Run's limits at classes S (ny = nz = 64) and W (nz = 32).
func TestEntryPointsAcceptSameNP(t *testing.T) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		for np := 1; np <= 256; np *= 2 {
			_, runErr := mpi.RunOn(platform.Vayu(), np, func(c *mpi.Comm) error {
				_, err := Run(c, class)
				return err
			})
			_, skelErr := mpi.RunOn(platform.Vayu(), np, func(c *mpi.Comm) error {
				return Skeleton(c, class)
			})
			if (runErr == nil) != (skelErr == nil) {
				t.Errorf("class %s np %d: Run err %v, Skeleton err %v; want both nil or both non-nil",
					class, np, runErr, skelErr)
			}
		}
	}
}

func TestSkeletonCalibration(t *testing.T) {
	res, err := mpi.RunOn(platform.DCC(), 1, func(c *mpi.Comm) error {
		return Skeleton(c, npb.ClassB)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 280 || res.Time > 380 {
		t.Fatalf("FT.B.1 on DCC = %.1f s, want ~327.6", res.Time)
	}
}

func TestSkeletonVayuScalesWell(t *testing.T) {
	st := func(p *platform.Platform, np int) float64 {
		res, err := mpi.RunOn(p, np, func(c *mpi.Comm) error {
			return Skeleton(c, npb.ClassB)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	// Paper: "For the FT benchmark we see Vayu scaling almost linearly,
	// whereas DCC and EC2 do not scale as well."
	vSpeed := st(platform.Vayu(), 1) / st(platform.Vayu(), 64)
	dSpeed := st(platform.DCC(), 1) / st(platform.DCC(), 64)
	if vSpeed < 40 {
		t.Fatalf("Vayu FT speedup at 64 = %.1f, want near-linear", vSpeed)
	}
	if dSpeed >= vSpeed {
		t.Fatalf("DCC FT speedup %.1f should trail Vayu %.1f", dSpeed, vSpeed)
	}
}
