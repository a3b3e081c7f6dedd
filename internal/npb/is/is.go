// Package is implements the NPB IS kernel's communication skeleton: a
// parallel integer bucket sort dominated by an all-reduce of bucket
// counts and an all-to-all key exchange per iteration, the most
// communication-intensive benchmark in the suite ("does not scale well on
// any of the clusters", per the paper).
package is

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/npb"
)

// Skeleton replays the IS communication pattern with phantom messages: a
// bucket-count all-reduce and a uniform all-to-all of key payloads per
// iteration.
func Skeleton(c *mpi.Comm, class npb.Class) error {
	np := c.Size()
	if !npb.ValidProcs("is", np) {
		return fmt.Errorf("is: %d processes (want a power of two)", np)
	}
	p := npb.ISParamsFor(class)
	total, err := npb.TotalWork("is", class)
	if err != nil {
		return err
	}
	perIter := total.Scale(1 / float64(np) / float64(p.Niter))
	keyBlock := 4 * p.TotalKeys / (np * np) // int keys to each peer

	for iter := 0; iter < p.Niter; iter++ {
		c.Compute(perIter.Scale(0.3))
		c.AllreduceN(4 * p.Buckets)
		if np > 1 {
			c.AlltoallN(keyBlock)
		}
		c.Compute(perIter.Scale(0.7))
	}
	c.AllreduceN(16) // final verification reduction
	return nil
}
