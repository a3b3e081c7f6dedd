package suite

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/platform"
)

// callSeq records each rank's communication calls as (name, bytes)
// pairs. Calls for one rank arrive sequentially, so each rank appends to
// its own slice without locking.
type callSeq [][]string

func (s callSeq) Call(rank int, rec mpi.CallRecord) {
	s[rank] = append(s[rank], fmt.Sprintf("%s/%d", rec.Name, rec.Bytes))
}
func (callSeq) Advance(int, string, float64, float64) {}
func (callSeq) Region(int, string, float64)           {}

// traceCalls runs body on np ranks of Vayu and returns every rank's call
// sequence.
func traceCalls(t *testing.T, np int, body func(c *mpi.Comm) error) callSeq {
	t.Helper()
	p := platform.Vayu()
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	seq := make(callSeq, np)
	w, err := mpi.NewWorld(p, pl, mpi.WithTracer(seq))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestFullMathMatchesSkeleton is the guarantee a full-math kernel exists
// for: at classes S and W and np 1–16, every rank of its Run issues the
// same sequence of MPI calls with the same byte counts as the Skeleton
// that regenerates the paper's figures. A kernel whose numerics do not
// communicate like its skeleton proves nothing about the skeleton, so
// every entry of Fulls must pass here.
func TestFullMathMatchesSkeleton(t *testing.T) {
	names := make([]string, 0, len(Fulls))
	for name := range Fulls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full, skel := Fulls[name], Skeletons[name]
		for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
			for _, np := range []int{1, 2, 4, 8, 16} {
				t.Run(fmt.Sprintf("%s/%s/np%d", name, class, np), func(t *testing.T) {
					got := traceCalls(t, np, func(c *mpi.Comm) error {
						_, err := full(c, class)
						return err
					})
					want := traceCalls(t, np, func(c *mpi.Comm) error { return skel(c, class) })
					for r := range want {
						if d := firstDiff(got[r], want[r]); d >= 0 {
							t.Fatalf("rank %d: call %d of Run is %s, Skeleton's is %s (%d vs %d calls)",
								r, d, at(got[r], d), at(want[r], d), len(got[r]), len(want[r]))
						}
					}
				})
			}
		}
	}
}

// firstDiff returns the index of the first call where a and b differ, or
// -1 if they are equal.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}
