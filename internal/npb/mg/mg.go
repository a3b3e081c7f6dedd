// Package mg implements the NPB MG kernel's communication skeleton:
// V-cycle multigrid on a 3D periodic grid with a 3D domain decomposition
// and six-face halo exchanges at every level, the benchmark whose
// shrinking messages at coarse levels make it latency-sensitive on the
// virtualised clusters.
package mg

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/npb"
)

const tagFace = 21

// decomp is the 3D process grid and this rank's coordinates.
type decomp struct {
	px, py, pz int
	rx, ry, rz int
}

// factor3 splits a power-of-two np into near-equal power-of-two factors.
func factor3(np int) (int, int, int) {
	px, py, pz := 1, 1, 1
	for np > 1 {
		switch {
		case px <= py && px <= pz:
			px <<= 1
		case py <= pz:
			py <<= 1
		default:
			pz <<= 1
		}
		np >>= 1
	}
	return px, py, pz
}

func newDecomp(np, rank int) decomp {
	px, py, pz := factor3(np)
	return decomp{
		px: px, py: py, pz: pz,
		rx: rank % px,
		ry: (rank / px) % py,
		rz: rank / (px * py),
	}
}

func (d decomp) rankAt(x, y, z int) int {
	x = (x + d.px) % d.px
	y = (y + d.py) % d.py
	z = (z + d.pz) % d.pz
	return (z*d.py+y)*d.px + x
}

// Skeleton replays MG's communication pattern: per V-cycle, face
// exchanges at every level (message sizes shrinking 4x per level) and the
// norm all-reduce, with calibrated work.
func Skeleton(c *mpi.Comm, class npb.Class) error {
	np := c.Size()
	if !npb.ValidProcs("mg", np) {
		return fmt.Errorf("mg: %d processes (want a power of two)", np)
	}
	p := npb.MGParamsFor(class)
	total, err := npb.TotalWork("mg", class)
	if err != nil {
		return err
	}
	perCycle := total.Scale(1 / float64(np) / float64(p.Niter))
	d := newDecomp(np, c.Rank())

	type lvl struct{ n int }
	var levels []lvl
	for n := p.N; n >= 4; n >>= 1 {
		if n/d.px < 2 || n/d.py < 2 || n/d.pz < 2 {
			break
		}
		levels = append(levels, lvl{n})
	}

	exchangeLevel := func(n int) {
		faces := []struct {
			pdim, minus, plus, bytes int
		}{
			{d.px, d.rankAt(d.rx-1, d.ry, d.rz), d.rankAt(d.rx+1, d.ry, d.rz), 8 * (n / d.py) * (n / d.pz)},
			{d.py, d.rankAt(d.rx, d.ry-1, d.rz), d.rankAt(d.rx, d.ry+1, d.rz), 8 * (n / d.px) * (n / d.pz)},
			{d.pz, d.rankAt(d.rx, d.ry, d.rz-1), d.rankAt(d.rx, d.ry, d.rz+1), 8 * (n / d.px) * (n / d.py)},
		}
		for axis, f := range faces {
			if f.pdim == 1 {
				continue
			}
			c.SendrecvN(f.minus, tagFace+2*axis, f.bytes, f.plus, tagFace+2*axis)
			c.SendrecvN(f.plus, tagFace+2*axis+1, f.bytes, f.minus, tagFace+2*axis+1)
		}
	}

	for iter := 0; iter < p.Niter; iter++ {
		// Down sweep: every smoothing, residual and transfer operator
		// refreshes halos (comm3 after each stencil application in mg.f),
		// ~5 exchanges per level each way. 2*L+3 work shares per cycle.
		share := perCycle.Scale(1 / float64(2*len(levels)+3))
		for _, l := range levels {
			for e := 0; e < 5; e++ {
				exchangeLevel(l.n)
			}
			c.Compute(share)
		}
		for i := len(levels) - 1; i >= 0; i-- {
			for e := 0; e < 5; e++ {
				exchangeLevel(levels[i].n)
			}
			c.Compute(share)
		}
		c.Compute(share.Scale(3))
	}
	c.AllreduceN(8) // final norm
	return nil
}
