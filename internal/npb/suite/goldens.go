package suite

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/ft"
	"repro/internal/platform"
)

// Self-golden management. EP verifies against the official NPB reference
// sums. FT's initialisation path differs from ft.f's (see ft.go), so its
// reference is a trusted serial run of this implementation; a parallel
// run then verifies decomposition independence against the serial result.

var goldensMu sync.Mutex
var goldensDone = map[npb.Class]bool{}

// RegisterGoldens runs FT serially at the given class on the reference
// platform and records its checksums as the verification reference.
// Idempotent per class. Classes A and above take real compute time; S
// and W are near-instant.
func RegisterGoldens(class npb.Class) error {
	goldensMu.Lock()
	defer goldensMu.Unlock()
	if goldensDone[class] {
		return nil
	}
	p := platform.Vayu()

	if _, err := mpi.RunOn(p, 1, func(c *mpi.Comm) error {
		r, err := ft.Run(c, class)
		if err != nil {
			return err
		}
		ft.SetReference(class, r.Checksums)
		return nil
	}); err != nil {
		return fmt.Errorf("suite: ft golden: %w", err)
	}

	goldensDone[class] = true
	return nil
}
