// Package ft implements the NPB FT kernel: the solution of a 3D diffusion
// equation by forward/inverse complex FFTs, with a slab (1D) domain
// decomposition whose global transposition is a single MPI_Alltoall per
// inverse transform — the collective whose shrinking per-pair block size
// the paper uses to explain FT's behaviour on the virtualised clusters.
//
// The grid is initialised with the exact NPB random stream (one jump-ahead
// per z-plane), evolved in spectral space with the diffusion factors and
// inverse-transformed each iteration; checksums over the canonical 1024
// sample points verify np-invariance.
package ft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/mpi"
	"repro/internal/npb"
)

const alpha = 1e-6 // NPB diffusion coefficient

// Result holds kernel outputs.
type Result struct {
	Class     npb.Class
	Checksums []complex128 // one per iteration
	Verified  bool
	VerifyMsg string
	Time      float64
}

// fft1d performs an in-place radix-2 complex FFT of a (power-of-two length)
// slice; sign is -1 for forward, +1 for inverse (unnormalised).
func fft1d(a []complex128, sign float64) {
	n := len(a)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("ft: FFT length %d not a power of two", n))
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := a[i+k]
				v := a[i+k+length/2] * w
				a[i+k] = u + v
				a[i+k+length/2] = u - v
				w *= wl
			}
		}
	}
}

// grid is one rank's slab state.
type grid struct {
	p      npb.FTParams
	np     int
	rank   int
	zLo    int // first owned z-plane (slab layout)
	zCnt   int
	yLo    int // first owned y-row (transposed layout)
	yCnt   int
	slab   []complex128 // [zCnt][ny][nx]
	trans  []complex128 // [yCnt][nz][nx]
	sendBf []complex128
	recvBf []complex128
	line   []complex128
}

// checkSlabs reports whether np ranks can each own whole z planes of
// the slab form and whole y planes of the transposed form.
func checkSlabs(p npb.FTParams, np int) error {
	if p.NZ%np != 0 || p.NY%np != 0 {
		return fmt.Errorf("ft: np=%d must divide ny=%d and nz=%d", np, p.NY, p.NZ)
	}
	return nil
}

func newGrid(p npb.FTParams, np, rank int) (*grid, error) {
	if err := checkSlabs(p, np); err != nil {
		return nil, err
	}
	g := &grid{p: p, np: np, rank: rank}
	g.zCnt = p.NZ / np
	g.zLo = rank * g.zCnt
	g.yCnt = p.NY / np
	g.yLo = rank * g.yCnt
	g.slab = make([]complex128, g.zCnt*p.NY*p.NX)
	g.trans = make([]complex128, g.yCnt*p.NZ*p.NX)
	g.sendBf = make([]complex128, g.zCnt*p.NY*p.NX)
	g.recvBf = make([]complex128, g.zCnt*p.NY*p.NX)
	n := p.NX
	if p.NY > n {
		n = p.NY
	}
	if p.NZ > n {
		n = p.NZ
	}
	g.line = make([]complex128, n)
	return g, nil
}

func (g *grid) slabAt(z, y, x int) int  { return (z*g.p.NY+y)*g.p.NX + x }
func (g *grid) transAt(y, z, x int) int { return (y*g.p.NZ+z)*g.p.NX + x }

// initialise fills the slab with the NPB random stream: the global array
// is defined plane-by-plane from seed 314159265, each (x,y) plane
// consuming 2*nx*ny variates, so any decomposition produces identical
// global data.
func (g *grid) initialise() {
	base := npb.NewLCG(314159265)
	vals := make([]float64, 2*g.p.NX*g.p.NY)
	for zl := 0; zl < g.zCnt; zl++ {
		z := g.zLo + zl
		stream := base.Jump(uint64(z) * uint64(2*g.p.NX*g.p.NY))
		stream.Fill(vals)
		for y := 0; y < g.p.NY; y++ {
			for x := 0; x < g.p.NX; x++ {
				k := 2 * (y*g.p.NX + x)
				g.slab[g.slabAt(zl, y, x)] = complex(vals[k], vals[k+1])
			}
		}
	}
}

// fftXY runs 1D FFTs along x then y for every local z-plane of the slab.
func (g *grid) fftXY(sign float64) {
	nx, ny := g.p.NX, g.p.NY
	for z := 0; z < g.zCnt; z++ {
		for y := 0; y < ny; y++ {
			row := g.slab[g.slabAt(z, y, 0) : g.slabAt(z, y, 0)+nx]
			fft1d(row, sign)
		}
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				g.line[y] = g.slab[g.slabAt(z, y, x)]
			}
			fft1d(g.line[:ny], sign)
			for y := 0; y < ny; y++ {
				g.slab[g.slabAt(z, y, x)] = g.line[y]
			}
		}
	}
}

// fftZ runs 1D FFTs along z in the transposed layout.
func (g *grid) fftZ(sign float64) {
	nx, nz := g.p.NX, g.p.NZ
	for y := 0; y < g.yCnt; y++ {
		for x := 0; x < nx; x++ {
			for z := 0; z < nz; z++ {
				g.line[z] = g.trans[g.transAt(y, z, x)]
			}
			fft1d(g.line[:nz], sign)
			for z := 0; z < nz; z++ {
				g.trans[g.transAt(y, z, x)] = g.line[z]
			}
		}
	}
}

// toTransposed redistributes slab -> transposed via alltoall: rank r
// receives the y-rows in its range for every z-plane.
func (g *grid) toTransposed(c *mpi.Comm) {
	nx := g.p.NX
	blk := g.zCnt * g.yCnt * nx // per-destination block
	for dst := 0; dst < g.np; dst++ {
		off := dst * blk
		for z := 0; z < g.zCnt; z++ {
			for y := 0; y < g.yCnt; y++ {
				copy(g.sendBf[off:off+nx], g.slab[g.slabAt(z, dst*g.yCnt+y, 0):g.slabAt(z, dst*g.yCnt+y, 0)+nx])
				off += nx
			}
		}
	}
	g.alltoall(c)
	for src := 0; src < g.np; src++ {
		off := src * blk
		for z := 0; z < g.zCnt; z++ {
			for y := 0; y < g.yCnt; y++ {
				copy(g.trans[g.transAt(y, src*g.zCnt+z, 0):g.transAt(y, src*g.zCnt+z, 0)+nx], g.recvBf[off:off+nx])
				off += nx
			}
		}
	}
}

// toSlab is the inverse redistribution.
func (g *grid) toSlab(c *mpi.Comm) {
	nx := g.p.NX
	blk := g.zCnt * g.yCnt * nx
	for dst := 0; dst < g.np; dst++ {
		off := dst * blk
		for y := 0; y < g.yCnt; y++ {
			for z := 0; z < g.zCnt; z++ {
				copy(g.sendBf[off:off+nx], g.trans[g.transAt(y, dst*g.zCnt+z, 0):g.transAt(y, dst*g.zCnt+z, 0)+nx])
				off += nx
			}
		}
	}
	g.alltoall(c)
	for src := 0; src < g.np; src++ {
		off := src * blk
		for y := 0; y < g.yCnt; y++ {
			for z := 0; z < g.zCnt; z++ {
				copy(g.slab[g.slabAt(z, src*g.yCnt+y, 0):g.slabAt(z, src*g.yCnt+y, 0)+nx], g.recvBf[off:off+nx])
				off += nx
			}
		}
	}
}

// alltoall exchanges the packed blocks of sendBf into recvBf. A single
// rank owns every block, so it copies locally instead of calling
// AlltoallComplex, as ft.f's 0-D layout and the skeleton do.
func (g *grid) alltoall(c *mpi.Comm) {
	if g.np == 1 {
		copy(g.recvBf, g.sendBf)
		return
	}
	c.AlltoallComplex(g.sendBf, g.recvBf)
}

// waveNumber maps an FFT index to its signed wavenumber.
func waveNumber(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// Run executes the FT benchmark. Every rank returns the same result.
func Run(c *mpi.Comm, class npb.Class) (*Result, error) {
	np := c.Size()
	if !npb.ValidProcs("ft", np) {
		return nil, fmt.Errorf("ft: %d processes (want a power of two)", np)
	}
	p := npb.FTParamsFor(class)
	g, err := newGrid(p, np, c.Rank())
	if err != nil {
		return nil, err
	}
	total, err := npb.TotalWork("ft", class)
	if err != nil {
		return nil, err
	}
	// One forward transform plus one inverse per iteration.
	perTransform := total.Scale(1 / float64(np) / float64(p.Niter+1))

	g.initialise()

	// Forward 3D FFT of u0: xy in slab form, transpose, z.
	g.fftXY(-1)
	g.toTransposed(c)
	g.fftZ(-1)
	c.Compute(perTransform)

	// Spectrum stays in g.trans; keep a copy as u1.
	u1 := append([]complex128(nil), g.trans...)

	// Precompute per-point decay exponents for the owned spectral block.
	expo := make([]float64, len(u1))
	for y := 0; y < g.yCnt; y++ {
		ky := waveNumber(g.yLo+y, p.NY)
		for z := 0; z < p.NZ; z++ {
			kz := waveNumber(z, p.NZ)
			for x := 0; x < p.NX; x++ {
				kx := waveNumber(x, p.NX)
				k2 := float64(kx*kx + ky*ky + kz*kz)
				expo[g.transAt(y, z, x)] = -4 * alpha * math.Pi * math.Pi * k2
			}
		}
	}

	res := &Result{Class: class}
	ntotal := float64(p.Total())
	for iter := 1; iter <= p.Niter; iter++ {
		// Evolve the spectrum to time t=iter and inverse transform.
		t := float64(iter)
		for i := range u1 {
			g.trans[i] = u1[i] * complex(math.Exp(expo[i]*t), 0)
		}
		g.fftZ(1)
		g.toSlab(c)
		g.fftXY(1)
		c.Compute(perTransform)

		// Checksum over the canonical 1024 points of the normalised field.
		var sum complex128
		for j := 1; j <= 1024; j++ {
			q := j % p.NX
			r := (3 * j) % p.NY
			s := (5 * j) % p.NZ
			if s >= g.zLo && s < g.zLo+g.zCnt {
				sum += g.slab[g.slabAt(s-g.zLo, r, q)]
			}
		}
		sum /= complex(ntotal, 0)
		parts := []float64{real(sum), imag(sum)}
		c.Allreduce(mpi.Sum, parts)
		res.Checksums = append(res.Checksums, complex(parts[0], parts[1]))
	}
	res.Time = c.Clock()

	refMu.RLock()
	refs, ok := checksumReference[class]
	refMu.RUnlock()
	if ok {
		res.Verified = true
		res.VerifyMsg = "VERIFICATION SUCCESSFUL"
		for i, want := range refs {
			if i >= len(res.Checksums) {
				break
			}
			if cmplx.Abs(res.Checksums[i]-want)/cmplx.Abs(want) > 1e-9 {
				res.Verified = false
				res.VerifyMsg = fmt.Sprintf("verification failed at iteration %d: %v, want %v",
					i+1, res.Checksums[i], want)
				break
			}
		}
	} else {
		res.VerifyMsg = "no reference checksums for class"
	}
	return res, nil
}

// checksumReference holds self-generated golden checksums. The official
// NPB checksums do not apply: the spectral evolution here multiplies by
// the plain diffusion factors exp(-4*alpha*pi^2*|k|^2*t), whereas ft.f
// evolves with its index-shifted variant, so the evolved fields, and with
// them the checksums, differ from the Fortran suite's.
// refMu guards the map: goldens may be registered while concurrent
// simulations verify against them.
var (
	refMu             sync.RWMutex
	checksumReference = map[npb.Class][]complex128{}
)

// SetReference records golden checksums for a class.
func SetReference(class npb.Class, sums []complex128) {
	refMu.Lock()
	checksumReference[class] = append([]complex128(nil), sums...)
	refMu.Unlock()
}

// Skeleton replays FT's communication pattern: one alltoall per transform
// whose per-pair block is 16*ntotal/np^2 bytes, plus the checksum
// all-reduce, with calibrated per-transform work. It accepts exactly the
// np that Run accepts.
func Skeleton(c *mpi.Comm, class npb.Class) error {
	np := c.Size()
	if !npb.ValidProcs("ft", np) {
		return fmt.Errorf("ft: %d processes (want a power of two)", np)
	}
	p := npb.FTParamsFor(class)
	if err := checkSlabs(p, np); err != nil {
		return err
	}
	total, err := npb.TotalWork("ft", class)
	if err != nil {
		return err
	}
	perTransform := total.Scale(1 / float64(np) / float64(p.Niter+1))
	blockBytes := 16 * p.Total() / (np * np)

	c.Compute(perTransform)
	if np > 1 {
		c.AlltoallN(blockBytes)
	}
	for iter := 0; iter < p.Niter; iter++ {
		c.Compute(perTransform)
		if np > 1 {
			c.AlltoallN(blockBytes)
		}
		c.AllreduceN(16)
	}
	return nil
}
