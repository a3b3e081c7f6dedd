// Command hostbench is the repository's benchmark: it measures the host
// time the simulator spends regenerating a fixed set of workloads cold,
// checks every output, and prints one JSON result line. See README.md
// for the workloads, the metrics and the layer each metric belongs to.
//
// Usage (from the repository root, normally through run.sh):
//
//	hostbench -workload chaste32 -seed 0 -seconds 55 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Set-up runs at least setupMinReps times and until setupSeconds have
// passed (at most setupMaxReps times); setup_s is the fastest, for the
// reason endToEnd gives. Spreading the repetitions over seconds keeps
// one slow stretch of a shared machine from deciding the figure.
const (
	setupMinReps = 5
	setupMaxReps = 400
	setupSeconds = 5
)

// gomaxprocs is 1: one simulator process per CPU keeps runs steady on a
// shared machine (see README.md, Load model).
const gomaxprocs = 1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timed is one measured run.
type timed struct {
	s    *sample
	wall float64
	use  usage
	tr   *traceRun
}

func main() {
	name := flag.String("workload", "", "workload name: chaste32 or fac2")
	seed := flag.Uint64("seed", 0, "workload seed; seed 0 reproduces the committed results/")
	seconds := flag.Int("seconds", 55, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root (holds results/)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, root string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	env := obs.EnvKnobs(obs.GitRev())
	env["workload"] = name
	env["seed"] = strconv.FormatUint(seed, 10)
	env["trace"] = strconv.FormatBool(traced)
	stamp, _ := json.Marshal(env) // a map of strings always encodes
	fmt.Printf("hostbench env %s\n", stamp)

	var setups []float64
	var p *prepared
	setupStart := time.Now()
	for len(setups) < setupMinReps || (len(setups) < setupMaxReps && time.Since(setupStart) < setupSeconds*time.Second) {
		runtime.GC()
		start := time.Now()
		var err error
		if p, err = w.setup(root, seed); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	budget := time.Duration(seconds) * time.Second
	b := &bencher{p: p}
	if !traced {
		b.measure(budget, 2, nil)
		return b.print(endToEnd(b, fastest(setups)))
	}
	b.measure(budget*2/5, 1, nil)
	base := time.Now()
	hists := new([numHists]gapHist)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	b.measure(budget-budget*2/5, 1, func() *traceRun { return newTraceRun(base, hists) })
	pprof.StopCPUProfile()
	shares, total, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	return b.print(perLayer(b, hists, shares, total))
}

// bencher runs and checks samples of one prepared workload.
type bencher struct {
	p         *prepared
	untraced  []timed
	traced    []timed
	ref       *sample
	tally     *tally // what the first traced run's tracers observed
	attempted int
	failed    int
}

// measure makes at least min runs, and more while one more run, taking
// as long as the median run so far, would end within the budget.
// newTrace, when set, makes the runs traced.
func (b *bencher) measure(budget time.Duration, min int, newTrace func() *traceRun) {
	start := time.Now()
	var took []float64
	for n := 0; n < min || time.Since(start).Seconds()+median(took) <= budget.Seconds(); n++ {
		var tr *traceRun
		if newTrace != nil {
			tr = newTrace()
		}
		runtime.GC()
		before := readProc()
		t0 := time.Now()
		s, err := b.p.run(tr)
		wall := time.Since(t0)
		after := readProc()
		took = append(took, wall.Seconds())
		b.attempted++
		if err == nil {
			err = b.verify(s, tr)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "hostbench: run %d failed: %v\n", b.attempted, err)
			continue
		}
		t := timed{s: s, wall: wall.Seconds(), use: delta(before, after), tr: tr}
		if tr == nil {
			b.untraced = append(b.untraced, t)
		} else {
			b.traced = append(b.traced, t)
		}
	}
}

// verify compares the run's files with the committed ones (seed 0), then
// requires the guards to hold and the digest and every exact count to
// repeat the first good run.
func (b *bencher) verify(s *sample, tr *traceRun) error {
	if b.p.golden != nil {
		if err := compareFiles(b.p.golden, s.files); err != nil {
			return err
		}
	}
	if tr != nil {
		tl := new(tally)
		for _, t := range tr.tracers {
			t.addTo(tl)
		}
		if b.tally == nil {
			b.tally = tl
		} else if *tl != *b.tally {
			return fmt.Errorf("traced call counts %+v differ from the first traced run's %+v", *tl, *b.tally)
		}
	}
	for _, k := range sortedKeys(b.p.guards) {
		if got, want := s.counts[k], b.p.guards[k]; got != want {
			return fmt.Errorf("%s = %d, want exactly %d", k, got, want)
		}
	}
	if b.ref == nil {
		b.ref = s
		return nil
	}
	if s.digest != b.ref.digest {
		return fmt.Errorf("output digest %.12s differs from the first run's %.12s", s.digest, b.ref.digest)
	}
	for _, k := range sortedKeys(b.ref.counts) {
		if s.counts[k] != b.ref.counts[k] {
			return fmt.Errorf("%s = %d, the first run counted %d", k, s.counts[k], b.ref.counts[k])
		}
	}
	return nil
}

func pick(ts []timed, f func(timed) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

func walls(ts []timed) []float64 { return pick(ts, func(t timed) float64 { return t.wall }) }

// endToEnd computes the untraced metrics. wall_s and cpu_s are those of
// the fastest run: on a shared machine other tenants only ever add time,
// in stretches that can cover a whole invocation's median, and the
// fastest run repeats best from one invocation to the next (see
// README.md, Findings). The median and the tail go on the samples line.
func endToEnd(b *bencher, setup float64) map[string]metric {
	ws := walls(b.untraced)
	info := map[string]any{"samples": len(ws), "wall_s_median": median(ws)}
	if len(ws) <= 20 {
		info["wall_s_samples"] = ws
	}
	if pm, ok := tailPercentile(len(ws)); ok {
		info[fmt.Sprintf("wall_s_p%g", float64(pm)/10)] = quantile(ws, float64(pm)/1000)
	}
	line, _ := json.Marshal(info) // plain numbers and slices always encode
	fmt.Printf("hostbench samples %s\n", line)
	peak := readProc().maxRSSKB
	return map[string]metric{
		"wall_s":      {fastest(ws), "s"},
		"setup_s":     {setup, "s"},
		"cpu_s":       {fastest(pick(b.untraced, func(t timed) float64 { return t.use.cpu })), "s"},
		"alloc_mb":    {median(pick(b.untraced, func(t timed) float64 { return t.use.allocMB })), "MB"},
		"peak_rss_mb": {float64(peak) / 1024, "MB"},
		"ok_ratio":    {float64(b.attempted-b.failed) / float64(b.attempted), "ratio"},
	}
}

// perLayer computes the traced metrics. Go runtime metrics come from the
// untraced runs so the tracer does not perturb them.
func perLayer(b *bencher, hists *[numHists]gapHist, shares map[string]int64, cpuTotal int64) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var tl tally
	if b.tally != nil {
		tl = *b.tally
	}
	put("mpi.calls", "count", float64(tl.total()))
	for op, name := range opNames {
		put("mpi.calls."+name, "count", float64(tl.calls[op]))
	}
	for h, name := range []string{"", ".Allreduce", ".Recv"} {
		put("mpi.call_host_ns"+name+".p50", "ns", hists[h].quantile(0.50))
		put("mpi.call_host_ns"+name+".p99", "ns", hists[h].quantile(0.99))
	}
	put("cpumodel.advances", "count", float64(tl.compute))
	put("iomodel.advances", "count", float64(tl.io))
	put("core.executes", "count", float64(tl.runs))

	var counts map[string]int64
	if b.ref != nil {
		counts = b.ref.counts
	}
	for _, k := range []string{"mpi.sends", "mpi.send_bytes", "mpi.recvs", "mpi.eager", "mpi.rendezvous", "facility.events"} {
		unit := "count"
		if k == "mpi.send_bytes" {
			unit = "bytes"
		}
		put(k, unit, float64(counts[k]))
	}

	for _, span := range []string{"core.execute_s", "sched.run_s"} {
		put(span, "s", median(pick(b.traced, func(t timed) float64 { return t.tr.spans[span] })))
	}

	untracedWall := median(walls(b.untraced))
	evps := 0.0
	if untracedWall > 0 {
		evps = float64(counts["facility.events"]) / untracedWall
	}
	put("facility.events_per_s", "1/s", evps)

	top, topShare := "", -1.0
	for _, l := range cpuLayers {
		share := 0.0
		if cpuTotal > 0 {
			share = float64(shares[l]) / float64(cpuTotal)
		}
		put("cpu_share."+l, "ratio", share)
		if share > topShare {
			top, topShare = l, share
		}
	}
	fmt.Fprintf(os.Stderr, "hostbench: largest self-CPU share: %s (%.1f%% of %.2f CPU s profiled)\n",
		top, 100*topShare, float64(cpuTotal)/1e9)

	var lat []uint64
	var bounds []float64
	for _, t := range b.untraced {
		if lat == nil {
			lat = make([]uint64, len(t.use.schedLat))
			bounds = t.use.schedBuckets
		}
		for i, c := range t.use.schedLat {
			lat[i] += c
		}
	}
	put("go.sched_latency_p50_us", "us", 1e6*histQuantile(lat, bounds, 0.50))
	put("go.sched_latency_p99_us", "us", 1e6*histQuantile(lat, bounds, 0.99))
	put("go.mutex_wait_s", "s", median(pick(b.untraced, func(t timed) float64 { return t.use.mutexWait })))
	put("go.gc_cycles", "count", median(pick(b.untraced, func(t timed) float64 { return t.use.gcCycles })))
	put("go.gc_cpu_s", "s", median(pick(b.untraced, func(t timed) float64 { return t.use.gcCPU })))

	ratio := 0.0
	if untracedWall > 0 {
		ratio = median(walls(b.traced)) / untracedWall
	}
	put("trace.overhead_ratio", "ratio", ratio)
	return m
}

// print writes the result line; a run with any failure is not correct.
func (b *bencher) print(metrics map[string]metric) error {
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	for _, n := range sortedKeys(metrics) {
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
