// Package npb implements the NAS Parallel Benchmarks (NPB 3.3 MPI suite)
// for the mpi runtime, as used in Figures 3–4 and Table II of the paper.
//
// All eight kernels (including the LU, BT and SP pseudo-applications) have
// pattern-faithful skeletons that replay the class-B communication
// structure with phantom messages and charge calibrated computational work
// — the form used to regenerate the paper's class-B results at up to 64
// ranks. EP and FT also have full-math implementations whose numerics are
// verified in tests and whose MPI calls equal their skeletons' call for
// call (suite.TestFullMathMatchesSkeleton).
package npb

import (
	"fmt"
	"sort"
)

// Class is an NPB problem class.
type Class byte

// Problem classes. S and W are the test classes; the paper's evaluation
// uses class B throughout.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// String implements fmt.Stringer.
func (c Class) String() string { return string(c) }

// ParseClass converts a one-letter class name.
func ParseClass(s string) (Class, error) {
	if len(s) == 1 {
		switch Class(s[0]) {
		case ClassS, ClassW, ClassA, ClassB, ClassC:
			return Class(s[0]), nil
		}
	}
	return 0, fmt.Errorf("npb: unknown class %q (want S, W, A, B or C)", s)
}

// Classes lists all classes smallest first.
func Classes() []Class { return []Class{ClassS, ClassW, ClassA, ClassB, ClassC} }

// Names lists the eight benchmarks in the paper's Figure 3/4 order.
func Names() []string { return []string{"bt", "ep", "cg", "ft", "is", "lu", "mg", "sp"} }

// ValidProcs reports whether a kernel accepts np processes, mirroring the
// NPB rules: BT and SP need square counts; CG, FT, IS, LU and MG need
// powers of two; EP accepts anything.
func ValidProcs(name string, np int) bool {
	if np < 1 {
		return false
	}
	switch name {
	case "ep":
		return true
	case "bt", "sp":
		for k := 1; k*k <= np; k++ {
			if k*k == np {
				return true
			}
		}
		return false
	case "cg", "ft", "is", "lu", "mg":
		return np&(np-1) == 0
	}
	return false
}

// ProcCounts returns the paper's Figure 4 x-axis for a kernel, capped at
// max: 1,2,4,...,64 for power-of-two kernels and 1,4,9,16,25,36,49,64 for
// BT/SP (the paper plots BT.B.36 and SP.B.36).
func ProcCounts(name string, max int) []int {
	var out []int
	switch name {
	case "bt", "sp":
		for k := 1; k*k <= max; k++ {
			out = append(out, k*k)
		}
	default:
		for np := 1; np <= max; np <<= 1 {
			out = append(out, np)
		}
	}
	sort.Ints(out)
	return out
}
