// Package chaste implements a performance proxy of the Chaste cardiac
// simulation benchmark used in the paper: a high-resolution rabbit-heart
// monodomain simulation (~4 million mesh nodes, 24 million elements, 250
// timesteps of 8 µs), whose runtime is dominated by the "KSp"
// conjugate-gradient linear solve — a section whose communication is
// "entirely 4-byte all-reduce operations" plus partition-boundary halo
// exchanges. The remaining sections are per-step assembly, the mesh read
// (1.4 GB plus a largely serial partition/build phase) and the HDF5-style
// collective output whose write-lock contention made it scale inversely
// on the Lustre-backed runs while staying constant on DCC's NFS.
//
// Weights are calibrated against Figure 5 and the 32-core IPM prose of
// the paper (48% comm on DCC vs 11% on Vayu; computation ratio 1.5; KSp
// communication ratio ~13x). See EXPERIMENTS.md, including the note on
// the apparent Vayu/DCC t8 label swap in the published figure.
package chaste

import (
	"fmt"
	"math"

	"repro/internal/cpumodel"
	"repro/internal/mpi"
)

// Config describes a Chaste monodomain run.
type Config struct {
	MeshNodes    int // ~4e6 for the rabbit heart
	MeshElements int // ~24e6
	Steps        int // timesteps (250 = 2.0 ms at 8 µs)

	MeshBytes   int64 // mesh file size (1.4 GB)
	OutputBytes int64 // collective solution output volume

	KSpItersPerStep int // CG iterations per linear solve
	Neighbours      int // partition neighbours exchanged with per iteration

	// Per-timestep whole-job work, split between the KSp solve and the
	// assembly/ODE sections.
	KSpFlopsPerStep      float64
	KSpBytesPerStep      float64
	AssemblyFlopsPerStep float64
	AssemblyBytesPerStep float64

	// Mesh build phase: a serial portion plus a parallel portion (the
	// paper's input section only sped up 1.25x from 8 to 64 cores).
	BuildSerialFlops   float64
	BuildParallelFlops float64

	ImbalanceAmp float64 // mesh-partition load imbalance amplitude

	MemTotal        int64
	MemPerRankFixed int64

	// CheckpointEvery writes a state checkpoint after every N timesteps
	// (0 = off). Under a resilient run a failure resumes from the last
	// durable checkpoint instead of re-reading and re-building the mesh.
	CheckpointEvery int
	// CheckpointBytes is the checkpoint volume (0 = MeshBytes).
	CheckpointBytes int64
}

// Default returns the paper's rabbit-heart benchmark configuration.
func Default() Config {
	return Config{
		MeshNodes:    4_000_000,
		MeshElements: 24_000_000,
		Steps:        250,

		MeshBytes:   gigabytes(1.4),
		OutputBytes: gigabytes(3.5),

		KSpItersPerStep: 50,
		Neighbours:      6,

		KSpFlopsPerStep:      23.9e9,
		KSpBytesPerStep:      52.1e9,
		AssemblyFlopsPerStep: 14.7e9,
		AssemblyBytesPerStep: 30e9,

		BuildSerialFlops:   52e9,
		BuildParallelFlops: 160e9,

		ImbalanceAmp: 0.14,

		MemTotal:        gigabytes(39.5), // "slightly greater than MetUM"
		MemPerRankFixed: 48 << 20,
	}
}

// MemPerRank returns the per-rank memory requirement at np ranks.
func (cfg Config) MemPerRank(np int) int64 {
	return cfg.MemPerRankFixed + cfg.MemTotal/int64(np)
}

// Stats summarises one run (identical on every rank).
type Stats struct {
	Total  float64 // total virtual wall time
	Input  float64 // mesh read + partition/build section
	KSp    float64 // cumulative linear-solver section time
	Output float64 // output section time
}

// boundaryNodes estimates a rank's partition surface (nodes shared with
// neighbours) for an unstructured volume mesh.
func boundaryNodes(meshNodes, np int) int {
	local := float64(meshNodes) / float64(np)
	return int(4 * math.Pow(local, 2.0/3.0))
}

// Run executes the Chaste proxy. Regions INPUT, ASSEMBLE, KSp and OUTPUT
// are reported to any attached profiler.
func Run(c *mpi.Comm, cfg Config) (*Stats, error) {
	np := c.Size()
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("chaste: invalid step count %d", cfg.Steps)
	}
	if cfg.Neighbours < 1 {
		return nil, fmt.Errorf("chaste: invalid Neighbours %d: need at least 1", cfg.Neighbours)
	}
	if np > cfg.MeshNodes {
		return nil, fmt.Errorf("chaste: %d ranks exceed mesh nodes", np)
	}

	// Partition imbalance: deterministic per-rank multiplier from the mesh
	// partitioner's uneven element counts.
	phi := 1 + cfg.ImbalanceAmp*(c.RNG().Derive(0xC4A57E).Float64()-0.3)

	ckptBytes := cfg.CheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = cfg.MeshBytes
	}
	resume := c.ResumeStep()
	inputStart := c.Clock()
	c.Region("INPUT")
	if resume == 0 {
		// INPUT: rank 0 streams the mesh file and scatters chunks; every
		// rank then runs the partly-serial partition/build phase.
		const tagMesh = 81
		share := int(cfg.MeshBytes / int64(np))
		c.SetSolo(true) // startup scatter: only rank 0 transmits
		if c.Rank() == 0 {
			c.ReadShared(cfg.MeshBytes, 1)
			for r := 1; r < np; r++ {
				c.SendN(r, tagMesh, share)
			}
		} else {
			c.RecvN(0, tagMesh)
		}
		c.SetSolo(false)
		c.Compute(cpumodel.Work{Flops: cfg.BuildSerialFlops})
		c.Compute(cpumodel.Work{Flops: cfg.BuildParallelFlops / float64(np)})
	} else {
		// Restart: each rank reads its checkpoint shard (the partition is
		// stored with it, so the serial mesh build is not repeated).
		c.ReadShared(ckptBytes/int64(np), np)
	}
	c.Barrier()
	inputDone := c.Clock() - inputStart

	// Per-step work shares.
	kspWork := cpumodel.Work{
		Flops: cfg.KSpFlopsPerStep / float64(np) * phi,
		Bytes: cfg.KSpBytesPerStep / float64(np),
	}
	asmWork := cpumodel.Work{
		Flops: cfg.AssemblyFlopsPerStep / float64(np) * phi,
		Bytes: cfg.AssemblyBytesPerStep / float64(np),
	}

	haloBytes := 8 * boundaryNodes(cfg.MeshNodes, np) / cfg.Neighbours
	// Neighbour ring: exchange with the Neighbours/2 nearest ranks on
	// both sides, the typical locality of a good mesh partition.
	pairs := cfg.Neighbours / 2

	var kspTime float64
	for step := resume; step < cfg.Steps; step++ {
		// ASSEMBLE: per-element matrix/RHS assembly and cell-model ODEs.
		c.Region("ASSEMBLE")
		c.Compute(asmWork)

		// KSp: the conjugate-gradient solve.
		c.Region("KSp")
		kspStart := c.Clock()
		perIter := kspWork.Scale(1 / float64(cfg.KSpItersPerStep))
		for it := 0; it < cfg.KSpItersPerStep; it++ {
			c.Compute(perIter)
			// SpMV boundary exchange with each mesh neighbour: per
			// distance k, sends to rank±k, then receives from rank∓k,
			// traced as the individual Sends and Recvs. A fault-free
			// world evaluates it as a schedule instead of as messages
			// (mpi.Comm.RingExchangeN), with identical clocks: each rank
			// logs the whole solve's halos, all-reduces and compute
			// charges in a window and parks once, at the Clock() that
			// closes the solve.
			c.RingExchangeN(haloBytes, pairs)
			// Two scalar dot products — the 4-byte all-reduces of the
			// paper's IPM analysis.
			c.AllreduceN(4)
			c.AllreduceN(4)
		}
		kspTime += c.Clock() - kspStart

		// CKPT: periodic state checkpoint (skipped after the final step).
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 && step+1 < cfg.Steps {
			c.Region("CKPT")
			c.Checkpoint(step+1, ckptBytes)
		}
	}

	// OUTPUT: collective write; lock contention grows with writer count
	// (the inverse scaling the paper saw on Lustre).
	c.Region("OUTPUT")
	outStart := c.Clock()
	c.WriteShared(cfg.OutputBytes/int64(np), np)
	c.Barrier()
	outTime := c.Clock() - outStart

	buf := []float64{c.Clock(), inputDone, kspTime, outTime}
	c.Allreduce(mpi.Max, buf)
	return &Stats{Total: buf[0], Input: buf[1], KSp: buf[2], Output: buf[3]}, nil
}

// gigabytes converts a GB count to bytes.
func gigabytes(g float64) int64 { return int64(g * float64(int64(1)<<30)) }
