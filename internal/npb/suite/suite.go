// Package suite provides a registry over the eight NPB kernels so the
// benchmark harness can run any of them uniformly: skeleton runners for
// all eight (used at class B) and full-math runners for EP and FT (used
// for verification at the small classes), each of which issues exactly
// its skeleton's MPI calls (TestFullMathMatchesSkeleton).
package suite

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/cg"
	"repro/internal/npb/ep"
	"repro/internal/npb/ft"
	"repro/internal/npb/is"
	"repro/internal/npb/lu"
	"repro/internal/npb/mg"
	"repro/internal/npb/sp"
)

// SkeletonFunc replays a kernel's class communication pattern.
type SkeletonFunc func(c *mpi.Comm, class npb.Class) error

// Skeletons maps kernel names to their pattern replays.
var Skeletons = map[string]SkeletonFunc{
	"ep": ep.Skeleton,
	"cg": cg.Skeleton,
	"ft": ft.Skeleton,
	"is": is.Skeleton,
	"mg": mg.Skeleton,
	"lu": lu.Skeleton,
	"bt": bt.Skeleton,
	"sp": sp.Skeleton,
}

// FullResult is the common view of a full-math kernel run.
type FullResult struct {
	Kernel    string
	Class     npb.Class
	Verified  bool
	VerifyMsg string
	Time      float64
}

// FullFunc runs a kernel's full-math implementation.
type FullFunc func(c *mpi.Comm, class npb.Class) (*FullResult, error)

// Fulls maps kernel names to full-math runners. Only EP and FT have one;
// the other six are skeleton-only (see DESIGN.md).
var Fulls = map[string]FullFunc{
	"ep": func(c *mpi.Comm, class npb.Class) (*FullResult, error) {
		r, err := ep.Run(c, class)
		if err != nil {
			return nil, err
		}
		return &FullResult{"ep", class, r.Verified, r.VerifyMsg, r.Time}, nil
	},
	"ft": func(c *mpi.Comm, class npb.Class) (*FullResult, error) {
		r, err := ft.Run(c, class)
		if err != nil {
			return nil, err
		}
		return &FullResult{"ft", class, r.Verified, r.VerifyMsg, r.Time}, nil
	},
}

// Skeleton returns the pattern replay for a kernel name.
func Skeleton(name string) (SkeletonFunc, error) {
	fn, ok := Skeletons[name]
	if !ok {
		return nil, fmt.Errorf("suite: unknown kernel %q", name)
	}
	return fn, nil
}
