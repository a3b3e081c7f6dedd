// Package cg implements the NPB CG kernel's communication skeleton: a
// conjugate-gradient solve of an unstructured sparse symmetric
// positive-definite system, the memory-bound,
// small-all-reduce-dominated benchmark whose NUMA sensitivity the paper
// highlights. The skeleton replays the reference 2D-decomposition
// pattern (row-wise partial-sum exchanges, transpose exchange and two
// 8-byte all-reduces per inner iteration) with calibrated work.
package cg

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/npb"
)

const innerIters = 25 // CG steps per outer iteration, as in cg.f

// Skeleton replays the reference NPB CG communication pattern on a
// 2D process grid with phantom messages and calibrated work.
func Skeleton(c *mpi.Comm, class npb.Class) error {
	np := c.Size()
	if !npb.ValidProcs("cg", np) {
		return fmt.Errorf("cg: %d processes (want a power of two)", np)
	}
	p := npb.CGParamsFor(class)
	total, err := npb.TotalWork("cg", class)
	if err != nil {
		return err
	}
	perIter := total.Scale(1 / float64(np) / float64(p.Niter*innerIters))

	// Processor grid as in cg.f: npcols x nprows with npcols >= nprows.
	lg := 0
	for 1<<lg < np {
		lg++
	}
	npcols := 1 << ((lg + 1) / 2)
	nprows := np / npcols
	row := c.Rank() / npcols
	col := c.Rank() % npcols

	rowBytes := 8 * p.NA / max(nprows, 1) // partial-sum exchange length
	transBytes := 8 * p.NA / max(np, 1)   // transpose block
	// Transpose-exchange partner: (row, col) pairs with
	// (col mod nprows, row + nprows*(col/nprows)), an involution for both
	// square grids (npcols == nprows) and 2:1 grids (npcols == 2*nprows) —
	// a partner mapping that is not an involution would deadlock the
	// pairwise exchange.
	transposePartner := (col%nprows)*npcols + row + nprows*(col/nprows)

	for outer := 0; outer < p.Niter; outer++ {
		for it := 0; it < innerIters; it++ {
			c.Compute(perIter)
			// Partial-sum reduction across the processor row.
			for k := 1; k < npcols; k <<= 1 {
				partner := row*npcols + (col ^ k)
				c.SendrecvN(partner, 1, rowBytes, partner, 1)
			}
			// Transpose exchange of the updated vector block.
			if transposePartner != c.Rank() {
				c.SendrecvN(transposePartner, 2, transBytes, transposePartner, 2)
			}
			// Two scalar dot products.
			c.AllreduceN(8)
			c.AllreduceN(8)
		}
		c.AllreduceN(16) // zeta numerator/denominator
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
