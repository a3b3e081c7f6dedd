package analysis

import "testing"

// TestLockhygHygiene covers the three checks and their negatives: a
// mixed locked/unlocked field write, the Locked-suffix and
// "Caller holds" contracts, a reasoned allow, atomic.Value type drift
// against a type-stable twin, and sync.Pool use-after-Put against the
// re-acquire and use-before-Put clean paths.
func TestLockhygHygiene(t *testing.T) {
	RunFixture(t, "testdata/src/lockhyg", "repro/internal/mpi", Lockhyg)
}
