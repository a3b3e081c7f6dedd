package npb

import (
	"fmt"

	"repro/internal/cpumodel"
)

// Calibration. The skeletons charge per-rank computational work derived
// from the class-B serial walltimes the paper measured on DCC (the table
// in Figure 3): BT 1696.9 s, EP 141.5 s, CG 244.9 s, FT 327.6 s, IS 8.6 s,
// LU 1514.7 s, MG 72.0 s, SP 1936.1 s. On the DCC model a single rank
// sustains ~0.9988 Gflop/s and ~6.4 GB/s, so each kernel's class-B work is
// the measured time converted through whichever resource dominates it:
// EP/FT/LU/BT/SP are flop-dominated, CG/MG/IS memory-dominated (which is
// what exposes CG to the NUMA-masking penalty at 8 ranks per node, as the
// paper observed).
const (
	dccOverhead = 1.06                            // DCC virtualisation compute tax
	dccFlopRate = 2.27e9 * 4 * 0.11 / dccOverhead // DCC effective flop rate, flops/s
	dccMemRate  = 6.4e9 / dccOverhead             // DCC single-rank memory rate, B/s
)

// classBWork holds the calibrated class-B totals.
var classBWork = map[string]cpumodel.Work{
	"ep": {Flops: 141.5 * dccFlopRate, Bytes: 1e10},
	"cg": {Flops: 5.0e10, Bytes: 244.9 * dccMemRate},
	"ft": {Flops: 327.6 * dccFlopRate, Bytes: 1.0e12},
	"is": {Flops: 1e9, Bytes: 8.6 * dccMemRate},
	"mg": {Flops: 3.0e10, Bytes: 72.0 * dccMemRate},
	"lu": {Flops: 1514.7 * dccFlopRate, Bytes: 3.0e12},
	"bt": {Flops: 1696.9 * dccFlopRate, Bytes: 3.5e12},
	"sp": {Flops: 1936.1 * dccFlopRate, Bytes: 4.0e12},
}

// classScale gives each class's work relative to class B, from the NPB
// problem-size and iteration-count ratios.
var classScale = map[string]map[Class]float64{
	"ep": {ClassS: 1.0 / 64, ClassW: 1.0 / 32, ClassA: 0.25, ClassB: 1, ClassC: 4},
	"cg": {ClassS: 0.0020, ClassW: 0.0115, ClassA: 0.0316, ClassB: 1, ClassC: 2.31},
	"ft": {ClassS: 0.0017, ClassW: 0.0036, ClassA: 0.069, ClassB: 1, ClassC: 4.32},
	"is": {ClassS: 1.0 / 512, ClassW: 1.0 / 32, ClassA: 0.25, ClassB: 1, ClassC: 4},
	"mg": {ClassS: 3.9e-4, ClassW: 0.025, ClassA: 0.2, ClassB: 1, ClassC: 8},
	"lu": {ClassS: 3.3e-4, ClassW: 0.0412, ClassA: 0.247, ClassB: 1, ClassC: 4},
	"bt": {ClassS: 4.9e-4, ClassW: 0.013, ClassA: 0.247, ClassB: 1, ClassC: 4},
	"sp": {ClassS: 4.1e-4, ClassW: 0.0445, ClassA: 0.247, ClassB: 1, ClassC: 4},
}

// TotalWork returns the calibrated whole-job computational work for a
// kernel at a class.
func TotalWork(name string, class Class) (cpumodel.Work, error) {
	base, ok := classBWork[name]
	if !ok {
		return cpumodel.Work{}, fmt.Errorf("npb: unknown kernel %q", name)
	}
	scale, ok := classScale[name][class]
	if !ok {
		return cpumodel.Work{}, fmt.Errorf("npb: kernel %s has no class %s", name, class)
	}
	return base.Scale(scale), nil
}

// Problem geometry per class, used by the skeletons to size messages.

// CGParams holds the CG problem description.
type CGParams struct {
	NA    int // matrix order
	Niter int // outer iterations
}

// CGParamsFor returns the NPB CG parameters for a class.
func CGParamsFor(class Class) CGParams {
	switch class {
	case ClassS:
		return CGParams{NA: 1400, Niter: 15}
	case ClassW:
		return CGParams{NA: 7000, Niter: 15}
	case ClassA:
		return CGParams{NA: 14000, Niter: 15}
	case ClassB:
		return CGParams{NA: 75000, Niter: 75}
	default: // C
		return CGParams{NA: 150000, Niter: 75}
	}
}

// FTParams holds the FT grid and iteration count.
type FTParams struct {
	NX, NY, NZ int
	Niter      int
}

// Total returns the number of grid points.
func (p FTParams) Total() int { return p.NX * p.NY * p.NZ }

// FTParamsFor returns the NPB FT parameters for a class.
func FTParamsFor(class Class) FTParams {
	switch class {
	case ClassS:
		return FTParams{64, 64, 64, 6}
	case ClassW:
		return FTParams{128, 128, 32, 6}
	case ClassA:
		return FTParams{256, 256, 128, 6}
	case ClassB:
		return FTParams{512, 256, 256, 20}
	default:
		return FTParams{512, 512, 512, 20}
	}
}

// ISParams holds the IS key count, bucket count and iterations.
type ISParams struct {
	TotalKeys int
	Buckets   int
	Niter     int
}

// ISParamsFor returns the NPB IS parameters for a class.
func ISParamsFor(class Class) ISParams {
	switch class {
	case ClassS:
		return ISParams{1 << 16, 1 << 10, 10}
	case ClassW:
		return ISParams{1 << 20, 1 << 10, 10}
	case ClassA:
		return ISParams{1 << 23, 1 << 10, 10}
	case ClassB:
		return ISParams{1 << 25, 1 << 10, 10}
	default:
		return ISParams{1 << 27, 1 << 10, 10}
	}
}

// GridParams describes the cubic-grid kernels (MG, LU, BT, SP).
type GridParams struct {
	N     int // grid edge (cells per dimension)
	Niter int
}

// MGParamsFor returns the NPB MG parameters for a class.
func MGParamsFor(class Class) GridParams {
	switch class {
	case ClassS:
		return GridParams{32, 4}
	case ClassW:
		return GridParams{128, 4}
	case ClassA:
		return GridParams{256, 4}
	case ClassB:
		return GridParams{256, 20}
	default:
		return GridParams{512, 20}
	}
}

// LUParamsFor returns the NPB LU parameters for a class.
func LUParamsFor(class Class) GridParams {
	switch class {
	case ClassS:
		return GridParams{12, 50}
	case ClassW:
		return GridParams{33, 300}
	case ClassA:
		return GridParams{64, 250}
	case ClassB:
		return GridParams{102, 250}
	default:
		return GridParams{162, 250}
	}
}

// BTParamsFor returns the NPB BT parameters for a class.
func BTParamsFor(class Class) GridParams {
	switch class {
	case ClassS:
		return GridParams{12, 60}
	case ClassW:
		return GridParams{24, 200}
	case ClassA:
		return GridParams{64, 200}
	case ClassB:
		return GridParams{102, 200}
	default:
		return GridParams{162, 200}
	}
}

// SPParamsFor returns the NPB SP parameters for a class.
func SPParamsFor(class Class) GridParams {
	switch class {
	case ClassS:
		return GridParams{12, 100}
	case ClassW:
		return GridParams{36, 400}
	case ClassA:
		return GridParams{64, 400}
	case ClassB:
		return GridParams{102, 400}
	default:
		return GridParams{162, 400}
	}
}

// EPParamsFor returns log2 of the EP pair count for a class.
func EPParamsFor(class Class) int {
	switch class {
	case ClassS:
		return 24
	case ClassW:
		return 25
	case ClassA:
		return 28
	case ClassB:
		return 30
	default:
		return 32
	}
}
