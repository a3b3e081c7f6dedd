// Cloudburst: the paper's motivating scenario end-to-end. Profile
// representative workloads once (ARRIVE-F style), predict their runtimes
// on the EC2 cloud, classify which are burst candidates, then run the same
// job stream through the batch facility twice: HPC only, and with an
// ARRIVE-F broker that may burst cloud-friendly jobs to EC2.
//
//	go run ./examples/cloudburst
package main

import (
	"fmt"
	"log"

	"repro/internal/arrive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/facility"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/platform"
	"repro/internal/report"
)

// profileKernel runs an NPB kernel on Vayu and extracts its workload
// profile.
func profileKernel(name string, np int) (*arrive.WorkloadProfile, error) {
	fn, err := suite.Skeleton(name)
	if err != nil {
		return nil, err
	}
	out, err := core.Execute(core.RunSpec{Platform: platform.Vayu(), NP: np}, func(c *mpi.Comm) error {
		return fn(c, npb.ClassB)
	})
	if err != nil {
		return nil, err
	}
	pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: np})
	if err != nil {
		return nil, err
	}
	w := arrive.FromProfile(name, out.Profile, platform.Vayu(), pl.MaxRanksPerNode())
	return w, nil
}

// profileSynthetic builds a compute-heavy profile (a parameter sweep,
// debugging runs — the jobs the paper says "do not require the
// supercomputing cluster").
func profileSynthetic(name string, np int, flops float64) (*arrive.WorkloadProfile, error) {
	out, err := core.Execute(core.RunSpec{Platform: platform.Vayu(), NP: np}, func(c *mpi.Comm) error {
		for i := 0; i < 10; i++ {
			c.Compute(cpumodel.Work{Flops: flops / 10 / float64(np)})
			c.AllreduceN(8)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: np})
	if err != nil {
		return nil, err
	}
	return arrive.FromProfile(name, out.Profile, platform.Vayu(), pl.MaxRanksPerNode()), nil
}

func main() {
	type candidate struct {
		w  *arrive.WorkloadProfile
		np int
	}
	var candidates []candidate
	for _, spec := range []struct {
		kernel string
		np     int
	}{{"ep", 32}, {"cg", 32}, {"is", 32}, {"lu", 16}} {
		w, err := profileKernel(spec.kernel, spec.np)
		if err != nil {
			log.Fatal(err)
		}
		candidates = append(candidates, candidate{w, spec.np})
	}
	sweep, err := profileSynthetic("param-sweep", 16, 5e13)
	if err != nil {
		log.Fatal(err)
	}
	candidates = append(candidates, candidate{sweep, 16})

	table := &report.Table{
		Title:   "ARRIVE-style platform advice (profiles taken on vayu)",
		Headers: []string{"workload", "class", "burst?", "t(vayu)", "t(ec2)", "slowdown"},
	}
	var jobs []facility.Job
	// The broker's per-class EC2 factors are the profiles' predicted
	// slowdowns; its MaxSlowdown filter keeps the communication-bound
	// classes at home.
	broker := &facility.Broker{
		Factors:     make(map[string][facility.NumPools]float64, len(candidates)),
		MaxSlowdown: 1.6,
	}
	for i, cand := range candidates {
		vayu := cand.w.Predict(platform.Vayu())
		ec2 := cand.w.Predict(platform.EC2())
		slow := cand.w.Slowdown(platform.EC2())
		table.AddRow(cand.w.Name, string(cand.w.Classify()),
			fmt.Sprintf("%v", cand.w.CloudFriendly(platform.EC2(), broker.MaxSlowdown)), vayu.Total, ec2.Total, slow)
		broker.Factors[cand.w.Name] = [facility.NumPools]float64{facility.PoolEC2: slow}
		// Queue scenario: 8 copies of each workload submitted a minute apart.
		for k := 0; k < 8; k++ {
			jobs = append(jobs, facility.Job{
				Tenant:  cand.w.Name,
				Class:   cand.w.Name,
				NP:      cand.np,
				Runtime: vayu.Total,
				Submit:  float64((i*8 + k) * 60),
			})
		}
	}
	fmt.Print(table.Render())

	// A contended 64-slot partition of the HPC facility, plus (for the
	// burst run) an EC2 pool large enough never to queue.
	prices := [facility.NumPools]float64{facility.PoolEC2: 0.68}
	run := func(slots [facility.NumPools]int, b *facility.Broker) facility.Summary {
		f, err := facility.New(facility.Config{Slots: slots, Broker: b, Prices: prices})
		if err != nil {
			log.Fatal(err)
		}
		res, err := f.Run(jobs)
		if err != nil {
			log.Fatal(err)
		}
		return facility.Summarize(res.Outcomes, 0)
	}
	base := run([facility.NumPools]int{facility.PoolHPC: 64}, nil)
	burst := run([facility.NumPools]int{facility.PoolHPC: 64, facility.PoolEC2: 1024}, broker)

	q := &report.Table{
		Title:   "Saturated queue: FCFS vs profile-guided cloudburst",
		Headers: []string{"policy", "avg wait (s)", "max wait (s)", "makespan (s)", "jobs burst", "cloud cost $"},
	}
	for _, r := range []struct {
		name string
		s    facility.Summary
	}{{"hpc only", base}, {"cloudburst", burst}} {
		q.AddRow(r.name, r.s.AvgWait, r.s.MaxWait, r.s.Makespan, r.s.Jobs-r.s.ByPool[facility.PoolHPC], r.s.Cost)
	}
	fmt.Println()
	fmt.Print(q.Render())

	if base.AvgWait > 0 {
		fmt.Printf("\nAverage wait improved by %.0f%% — the ARRIVE-F paper reports up to 33%%.\n",
			100*(base.AvgWait-burst.AvgWait)/base.AvgWait)
	}
}
