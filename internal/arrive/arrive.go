// Package arrive implements the paper's stated next step (its Section II
// and VI): using ARRIVE-F-style lightweight profiling metrics to predict a
// workload's execution time on each available platform and decide which
// jobs are candidates to burst from the HPC facility onto cloud resources.
//
// A workload profiled once (IPM profile + run metadata) is projected onto
// other platforms from first principles: computation scales with effective
// core speed under the target placement, communication is rebuilt from the
// recorded call mix (counts, bytes, collective round counts) against the
// target interconnect, and I/O scales with filesystem bandwidth.
//
// The package also models the EC2 spot price path (SpotMarket) that the
// paper's closing future-work item bids against. Simulating the queue
// those predictions feed — bursting, spot interruptions, billing — is
// internal/facility's job: its Broker consumes Slowdown and its
// MarketSpot consumes InterruptionPlan.
package arrive

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/ipm"
	"repro/internal/platform"
)

// WorkloadProfile captures what ARRIVE-F's online profiler measures.
type WorkloadProfile struct {
	Name string
	NP   int

	// Per-job totals on the profiled platform (sums over ranks).
	ComputeSeconds float64
	IOSeconds      float64

	// Communication mix: per MPI call name, the event count and bytes.
	Calls map[string]ipm.CallStats

	// AvgMsgBytes summarises the message-size distribution.
	AvgMsgBytes float64

	// Source describes the platform the profile was taken on.
	Source *platform.Platform
	// SourceRanksPerNode is the placement density during profiling.
	SourceRanksPerNode int
}

// FromProfile extracts a workload profile from an IPM snapshot.
func FromProfile(name string, pr *ipm.Profile, src *platform.Platform, ranksPerNode int) *WorkloadProfile {
	calls := make(map[string]ipm.CallStats, len(pr.Calls))
	for k, v := range pr.Calls {
		calls[k] = v
	}
	return &WorkloadProfile{
		Name:               name,
		NP:                 pr.NP,
		ComputeSeconds:     pr.Comp.Sum(),
		IOSeconds:          pr.IO.Sum(),
		Calls:              calls,
		AvgMsgBytes:        pr.AvgMessageBytes(),
		Source:             src,
		SourceRanksPerNode: ranksPerNode,
	}
}

// Class is a coarse workload classification.
type Class string

// Workload classes.
const (
	ComputeBound Class = "compute-bound"
	CommBound    Class = "communication-bound"
	IOBound      Class = "io-bound"
)

// callNames returns the profiled call labels in sorted order, so float
// sums over the call map accumulate in a fixed sequence.
func (w *WorkloadProfile) callNames() []string {
	names := make([]string, 0, len(w.Calls))
	for n := range w.Calls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Classify labels the workload by its dominant resource; the paper's
// related work found "scientific applications with minimal communications
// and I/O make the best fit for cloud deployment".
func (w *WorkloadProfile) Classify() Class {
	var comm float64
	for _, name := range w.callNames() {
		comm += w.Calls[name].Time
	}
	total := w.ComputeSeconds + w.IOSeconds + comm
	if total == 0 {
		return ComputeBound
	}
	switch {
	case w.IOSeconds/total > 0.4:
		return IOBound
	case comm/total > 0.25:
		return CommBound
	default:
		return ComputeBound
	}
}

// Slowdown returns the predicted runtime ratio of running on target vs
// the profiled source platform (+Inf when either is infeasible).
func (w *WorkloadProfile) Slowdown(target *platform.Platform) float64 {
	src := w.Predict(w.Source)
	dst := w.Predict(target)
	if !src.Feasible || !dst.Feasible || src.Total <= 0 {
		return math.Inf(1)
	}
	return dst.Total / src.Total
}

// CloudFriendly reports whether bursting to target is acceptable: the
// predicted slowdown stays within maxSlowdown (ARRIVE-F's candidate
// filter; the related work's finding that "applications with minimal
// communications and I/O make the best fit for cloud deployment").
func (w *WorkloadProfile) CloudFriendly(target *platform.Platform, maxSlowdown float64) bool {
	return w.Slowdown(target) <= maxSlowdown
}

// effectiveRate returns the per-rank flop rate of p at the placement
// density ranksPerNode, including the virtualisation overhead.
func effectiveRate(p *platform.Platform, ranksPerNode int) float64 {
	ctx := cpumodel.Context{RanksOnNode: ranksPerNode, NUMAPinned: p.NUMAPinned}
	return p.CPU.FlopsRate(ctx) / p.ComputeOverhead
}

// rounds estimates the communication rounds of a call type at np ranks.
func rounds(call string, np int) float64 {
	lg := math.Log2(float64(np))
	if lg < 1 {
		lg = 1
	}
	switch call {
	case "Allreduce", "Bcast", "Reduce", "Barrier":
		return math.Ceil(lg)
	case "Allgather", "Alltoall":
		return float64(np - 1)
	case "Gather", "Scatter":
		return 1
	default: // point-to-point
		return 1
	}
}

// Prediction is the projected runtime breakdown on one platform.
type Prediction struct {
	Platform string
	Nodes    int
	Compute  float64 // seconds (per-job wall share)
	Comm     float64
	IO       float64
	Total    float64
	Feasible bool
	Reason   string // why infeasible, when applicable
}

// Predict projects the workload onto target, choosing the default (block,
// minimal-nodes) placement. Times are wall estimates: per-rank means.
func (w *WorkloadProfile) Predict(target *platform.Platform) Prediction {
	pred := Prediction{Platform: target.Name}
	// A competent scheduler avoids oversubscribing hardware threads: ask
	// for enough nodes to give each rank a physical core, falling back to
	// the dense default when the platform is too small.
	phys := target.CPU.PhysicalCores()
	wanted := (w.NP + phys - 1) / phys
	pl, err := cluster.Place(target, cluster.Spec{NP: w.NP, Nodes: wanted, Policy: cluster.Spread})
	if err != nil {
		pl, err = cluster.Place(target, cluster.Spec{NP: w.NP})
	}
	if err != nil {
		pred.Reason = err.Error()
		return pred
	}
	pred.Feasible = true
	pred.Nodes = pl.Nodes
	rpn := pl.MaxRanksPerNode()

	// Compute: scale the profiled per-rank compute by the speed ratio.
	srcRate := effectiveRate(w.Source, w.SourceRanksPerNode)
	dstRate := effectiveRate(target, rpn)
	pred.Compute = w.ComputeSeconds / float64(w.NP) * srcRate / dstRate

	// Communication: rebuild each call class against the target link.
	link := target.Inter
	share := float64(rpn)
	if pl.Nodes == 1 {
		link = target.Intra
		share = 1
	}
	div := link.ShareDivisor(share)
	for _, name := range w.callNames() {
		cs := w.Calls[name]
		perRankEvents := float64(cs.Count) / float64(w.NP)
		perRankBytes := float64(cs.Bytes) / float64(w.NP)
		r := rounds(name, w.NP)
		_, delay := link.TransferDivided(nil, int(w.AvgMsgBytes), div)
		latencyTerm := perRankEvents * r * delay
		bwTerm := perRankBytes * r / (link.Bandwidth / share)
		pred.Comm += latencyTerm + bwTerm
	}

	// I/O: scale by filesystem read bandwidth (read-dominated workloads).
	if w.IOSeconds > 0 {
		pred.IO = w.IOSeconds / float64(w.NP) * w.Source.FS.ReadBW / target.FS.ReadBW
	}

	pred.Total = pred.Compute + pred.Comm + pred.IO
	return pred
}

// Recommend ranks the candidate platforms by predicted total time,
// infeasible ones last.
func (w *WorkloadProfile) Recommend(targets []*platform.Platform) []Prediction {
	preds := make([]Prediction, 0, len(targets))
	for _, t := range targets {
		preds = append(preds, w.Predict(t))
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Feasible != preds[j].Feasible {
			return preds[i].Feasible
		}
		return preds[i].Total < preds[j].Total
	})
	return preds
}

// String renders a prediction row.
func (p Prediction) String() string {
	if !p.Feasible {
		return fmt.Sprintf("%-8s infeasible: %s", p.Platform, p.Reason)
	}
	return fmt.Sprintf("%-8s total=%8.1fs  compute=%8.1fs comm=%8.1fs io=%6.1fs (%d nodes)",
		p.Platform, p.Total, p.Compute, p.Comm, p.IO, p.Nodes)
}
