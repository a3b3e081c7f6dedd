package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestValidate(t *testing.T) {
	good := QDRInfiniBand()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Link{
		{Name: "neg-lat", Latency: -1, Bandwidth: 1},
		{Name: "zero-bw", Latency: 0, Bandwidth: 0},
		{Name: "neg-ovh", Latency: 0, Bandwidth: 1, SendOverhead: -1},
		{Name: "neg-eager", Latency: 0, Bandwidth: 1, EagerLimit: -5},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("%s: invalid link passed validation", l.Name)
		}
	}
}

func TestAllStockLinksValid(t *testing.T) {
	for _, l := range []Link{QDRInfiniBand(), TenGigEXen(), GigEVSwitch(), SharedMemory(false), SharedMemory(true)} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestWireTimeSmallMessageIsLatency(t *testing.T) {
	l := QDRInfiniBand()
	if got := l.WireTime(0); got != l.Latency {
		t.Fatalf("WireTime(0) = %v, want latency %v", got, l.Latency)
	}
}

func TestWireTimeRendezvousSurcharge(t *testing.T) {
	l := Link{Name: "t", Latency: 10e-6, Bandwidth: 1e9, EagerLimit: 1024}
	below := l.WireTime(1024)
	above := l.WireTime(1025)
	extra := above - below
	// Crossing the eager limit adds two latencies (minus one byte of
	// serialisation, negligible).
	if math.Abs(extra-2*l.Latency) > 1e-9 {
		t.Fatalf("rendezvous surcharge = %v, want %v", extra, 2*l.Latency)
	}
}

func TestTransferDeterministicPerStream(t *testing.T) {
	l := GigEVSwitch()
	r1 := sim.NewRNG(99)
	r2 := sim.NewRNG(99)
	for i := 0; i < 1000; i++ {
		b1, d1 := l.Transfer(r1, 4096)
		b2, d2 := l.Transfer(r2, 4096)
		if b1 != b2 || d1 != d2 {
			t.Fatalf("transfer not deterministic at iteration %d", i)
		}
	}
}

func TestTransferNilRNGNoiseFree(t *testing.T) {
	l := GigEVSwitch()
	b, d := l.Transfer(nil, 1<<20)
	if b != l.SenderBusy(1<<20) {
		t.Fatalf("sender busy = %v, want %v", b, l.SenderBusy(1<<20))
	}
	if want := l.SendOverhead + l.WireTime(1<<20); math.Abs(d-want) > 1e-15 {
		t.Fatalf("arrival delay = %v, want %v", d, want)
	}
}

func TestBandwidthOrderingMatchesFig1(t *testing.T) {
	// Figure 1: Vayu QDR IB >> EC2 10GigE > DCC GigE at every size.
	ib, xen, ge := QDRInfiniBand(), TenGigEXen(), GigEVSwitch()
	for _, n := range []int{1, 64, 4096, 1 << 18, 1 << 21} {
		bwIB := float64(n) / ib.WireTime(n)
		bwXen := float64(n) / xen.WireTime(n)
		bwGE := float64(n) / ge.WireTime(n)
		if !(bwIB > bwXen && bwXen > bwGE) {
			t.Fatalf("size %d: bandwidth ordering violated: ib=%.3g xen=%.3g ge=%.3g", n, bwIB, bwXen, bwGE)
		}
	}
	// "more than one order of magnitude higher" vs DCC at large sizes.
	n := 1 << 21
	if ratio := (float64(n) / ib.WireTime(n)) / (float64(n) / ge.WireTime(n)); ratio < 10 {
		t.Fatalf("IB/GigE large-message bandwidth ratio = %v, want >= 10", ratio)
	}
}

func TestLatencyOrderingMatchesFig2(t *testing.T) {
	ib, xen, ge := QDRInfiniBand(), TenGigEXen(), GigEVSwitch()
	if !(ib.Latency < xen.Latency && xen.Latency <= ge.Latency) {
		t.Fatalf("latency ordering violated: ib=%v xen=%v ge=%v", ib.Latency, xen.Latency, ge.Latency)
	}
	if ib.Latency > 3e-6 {
		t.Fatalf("QDR IB small-message latency %v too high", ib.Latency)
	}
}

func TestDCCLatencyFluctuates(t *testing.T) {
	// The paper: DCC latencies "fluctuated from 1 byte to 512KB messages".
	ge := GigEVSwitch()
	r := sim.NewRNG(1)
	var s sim.Series
	for i := 0; i < 5000; i++ {
		_, d := ge.Transfer(r, 8)
		s = append(s, d)
	}
	cv := s.Stddev() / s.Mean()
	if cv < 0.3 {
		t.Fatalf("DCC small-message latency CV = %v, want strong fluctuation (>= 0.3)", cv)
	}
	// Vayu must be far steadier.
	ib := QDRInfiniBand()
	var vs sim.Series
	for i := 0; i < 5000; i++ {
		_, d := ib.Transfer(r, 8)
		vs = append(vs, d)
	}
	if vcv := vs.Stddev() / vs.Mean(); vcv > 0.1 {
		t.Fatalf("Vayu latency CV = %v, should be small", vcv)
	}
}

func TestPeakBandwidthCalibration(t *testing.T) {
	// Asymptotic bandwidths should match the paper's observed peaks:
	// ~3200, ~560, ~190 MB/s.
	check := func(l Link, wantMBs float64) {
		n := 64 << 20
		bw := float64(n) / l.WireTime(n) / (1 << 20)
		if math.Abs(bw-wantMBs)/wantMBs > 0.05 {
			t.Errorf("%s peak bandwidth = %.0f MB/s, want ~%.0f", l.Name, bw, wantMBs)
		}
	}
	check(QDRInfiniBand(), 3200)
	check(TenGigEXen(), 560)
	check(GigEVSwitch(), 190)
}

func TestSenderBusyMonotone(t *testing.T) {
	l := TenGigEXen()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return l.SenderBusy(x) <= l.SenderBusy(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireTimeMonotoneWithinProtocol(t *testing.T) {
	l := GigEVSwitch()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		// Compare within the same protocol regime (both eager or both
		// rendezvous); the handshake step is an intentional discontinuity.
		if (x <= l.EagerLimit) != (y <= l.EagerLimit) {
			return true
		}
		return l.WireTime(x) <= l.WireTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedMemoryFasterThanAnyNetwork(t *testing.T) {
	shm := SharedMemory(false)
	for _, l := range []Link{QDRInfiniBand(), TenGigEXen(), GigEVSwitch()} {
		for _, n := range []int{8, 1 << 14, 1 << 20} {
			if shm.WireTime(n) >= l.WireTime(n) {
				t.Fatalf("shm not faster than %s at %d bytes", l.Name, n)
			}
		}
	}
}

func TestShareExponentCollapsesSoftwareNICs(t *testing.T) {
	// DCC's emulated E1000 behind the vSwitch degrades super-linearly
	// under concurrency; hardware NICs share fairly.
	dcc := GigEVSwitch()
	ib := QDRInfiniBand()
	const n = 1 << 20
	_, d1 := dcc.TransferDivided(nil, n, dcc.ShareDivisor(1))
	_, d8 := dcc.TransferDivided(nil, n, dcc.ShareDivisor(8))
	_, i1 := ib.TransferDivided(nil, n, ib.ShareDivisor(1))
	_, i8 := ib.TransferDivided(nil, n, ib.ShareDivisor(8))
	dccRatio := d8 / d1
	ibRatio := i8 / i1
	if dccRatio < 20 {
		t.Fatalf("DCC 8-way share slowdown = %.1fx, want super-linear (8^1.9 ~ 52x)", dccRatio)
	}
	if ibRatio > 9 {
		t.Fatalf("IB 8-way share slowdown = %.1fx, want linear (~8x)", ibRatio)
	}
}

func TestShareBelowOneClamped(t *testing.T) {
	l := TenGigEXen()
	_, a := l.TransferDivided(nil, 4096, l.ShareDivisor(0.5))
	_, b := l.TransferDivided(nil, 4096, l.ShareDivisor(1))
	if a != b {
		t.Fatal("share < 1 must behave as 1")
	}
}

func TestShareDivisor(t *testing.T) {
	dcc, ib := GigEVSwitch(), QDRInfiniBand()
	for _, k := range []float64{2, 3, 8, 16} {
		if got, want := dcc.ShareDivisor(k), math.Pow(k, dcc.ShareExponent); got != want {
			t.Errorf("DCC divisor at share %g = %g, want %g", k, got, want)
		}
		if got := ib.ShareDivisor(k); got != k {
			t.Errorf("IB divisor at share %g = %g, want %g (fair sharing)", k, got, k)
		}
		if deg := dcc.Degraded(2, 3); deg.ShareDivisor(k) != dcc.ShareDivisor(k) {
			t.Errorf("a degraded link must share the healthy link's divisors")
		}
	}
	for _, share := range []float64{0, 0.5, 1} {
		if dcc.ShareDivisor(share) != 1 || ib.ShareDivisor(share) != 1 {
			t.Errorf("share %g must divide by 1", share)
		}
	}
}
