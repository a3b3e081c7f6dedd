// Command inspect analyses the observability artefacts the other
// binaries emit: Chrome trace-event timelines (-trace) and run
// manifests (-manifest / the sibling manifest of every repro artefact).
//
// Usage:
//
//	inspect trace FILE [-run N] [-breakdown REGION] [-flame FILE] [-path N]
//	inspect manifest FILE...
//	inspect diff [-fail-on-diff] [-tolerance T] A.manifest.json B.manifest.json
//
// `trace` prints the per-rank time breakdown (the paper's Figure 7 view),
// the Scalasca-style wait-state classification with straggler
// attribution, the per-region wait table and the cross-rank critical
// path; -flame writes folded stacks for flamegraph tools. `manifest`
// validates and summarises manifests. `diff` compares the deterministic
// fields of two manifests — metric deltas, artefact hashes, knobs — and
// with -fail-on-diff exits nonzero when anything differs. Float-valued
// fields (virtual time, metric totals) go through a relative-tolerance
// comparator (within): -tolerance 0.05
// accepts a 5% spread, the default 0 keeps the comparison exact.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "trace":
		cmdTrace(os.Args[2:])
	case "manifest":
		cmdManifest(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  inspect trace FILE [-run N] [-breakdown REGION] [-flame FILE] [-path N]
  inspect manifest FILE...
  inspect diff [-fail-on-diff] [-tolerance T] A.manifest.json B.manifest.json`)
	os.Exit(2)
}

// cmdTrace analyses one recorded timeline.
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("inspect trace", flag.ExitOnError)
	run := fs.Int("run", 0, "which recording (Chrome pid) to analyse")
	breakdown := fs.String("breakdown", "", "also print the Fig-7 per-process bar breakdown of this region (\"all\" = whole run)")
	flame := fs.String("flame", "", "write folded flamegraph stacks to this file")
	pathN := fs.Int("path", 12, "critical-path segments to print (0 = none)")
	var file string
	// Accept both `inspect trace file -flags` and `inspect trace -flags file`.
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		file, rest = rest[0], rest[1:]
	}
	fs.Parse(rest)
	if file == "" && fs.NArg() > 0 {
		file = fs.Arg(0)
	}
	if file == "" {
		usage()
	}

	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	runs, err := obs.ParseChromeTrace(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	if len(runs) == 0 {
		fatal(fmt.Errorf("%s contains no events", file))
	}
	if *run < 0 || *run >= len(runs) {
		fatal(fmt.Errorf("-run %d out of range: file has %d recording(s)", *run, len(runs)))
	}
	tl := runs[*run].Timeline
	a := obs.Analyze(tl)

	fmt.Printf("%s: recording %d/%d, %d ranks, run end %ss\n\n",
		file, *run, len(runs), a.NP, report.FormatFloat(a.End))
	printRanks(a)
	printWaits(a)
	printRegions(a)
	if *pathN > 0 {
		printPath(a, *pathN)
	}
	if *breakdown != "" {
		printBreakdown(tl, a, *breakdown)
	}
	if *flame != "" {
		if err := os.WriteFile(*flame, obs.FoldedStacks(tl), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote folded stacks to %s\n", *flame)
	}
}

// printRanks renders the per-rank time split, the Figure 7 table.
func printRanks(a *obs.Analysis) {
	t := &report.Table{
		Title:   "Per-rank breakdown (s)",
		Headers: []string{"rank", "comp", "comm", "io", "wait", "queued", "end"},
	}
	for _, rb := range a.Ranks {
		t.AddRow(rb.Rank, rb.Comp, rb.Comm, rb.IO, rb.Wait, rb.Queued, rb.End)
	}
	fmt.Println(t.Render())
}

// printWaits renders the wait-state classification and straggler ranking.
func printWaits(a *obs.Analysis) {
	w := a.Waits
	t := &report.Table{
		Title:   "Wait states (Scalasca classification)",
		Headers: []string{"class", "count", "seconds"},
	}
	t.AddRow("late sender (p2p)", w.LateSenderCount, w.LateSender)
	t.AddRow("late receiver (queued)", w.LateReceiverCount, w.LateReceiver)
	t.AddRow("collective straggler", w.CollectiveCount, w.CollectiveWait)
	fmt.Println(t.Render())

	if len(w.ByStraggler) > 0 {
		type rs struct {
			rank int
			wait float64
		}
		var rows []rs
		for r, v := range w.ByStraggler {
			rows = append(rows, rs{r, v})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].wait != rows[j].wait {
				return rows[i].wait > rows[j].wait
			}
			return rows[i].rank < rows[j].rank
		})
		if len(rows) > 8 {
			rows = rows[:8]
		}
		t := &report.Table{
			Title:   "Wait attributed to straggling rank",
			Headers: []string{"rank", "others waited (s)"},
		}
		for _, r := range rows {
			t.AddRow(r.rank, r.wait)
		}
		fmt.Println(t.Render())
	}
}

// printRegions renders the per-region wait table.
func printRegions(a *obs.Analysis) {
	if len(a.Regions) == 0 {
		return
	}
	t := &report.Table{
		Title:   "Per-region communication and wait (s)",
		Headers: []string{"region", "calls", "comm", "wait", "queued"},
	}
	for _, rw := range a.Regions {
		name := rw.Region
		if name == "" {
			name = "(main)"
		}
		t.AddRow(name, rw.Calls, rw.Comm, rw.Wait, rw.Queued)
	}
	fmt.Println(t.Render())
}

// printPath renders the critical path: headline plus the longest hops.
func printPath(a *obs.Analysis, n int) {
	pct := 0.0
	if a.End > 0 {
		pct = 100 * a.PathLength / a.End
	}
	fmt.Printf("Critical path: %d segment(s), %ss tracked (%.1f%% of run end)\n",
		len(a.Path), report.FormatFloat(a.PathLength), pct)
	segs := append([]obs.Segment(nil), a.Path...)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Dur() > segs[j].Dur() })
	if len(segs) > n {
		segs = segs[:n]
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Longest %d path segments", len(segs)),
		Headers: []string{"rank", "activity", "kind", "start", "dur (s)"},
	}
	for _, s := range segs {
		t.AddRow(s.Rank, s.Name, s.Kind, s.Start, s.Dur())
	}
	fmt.Println(t.Render())
}

// printBreakdown renders the Fig-7 style per-process bar chart for one
// region ("all" selects every event).
func printBreakdown(tl obs.Timeline, a *obs.Analysis, region string) {
	comp := make([]float64, a.NP)
	comm := make([]float64, a.NP)
	for r, evs := range tl {
		for _, e := range evs {
			if region != "all" && e.Region != region {
				continue
			}
			if e.Kind == "comm" {
				comm[r] += e.Dur
			} else {
				comp[r] += e.Dur // compute and io both render as "work"
			}
		}
	}
	title := fmt.Sprintf("Time by process, region %s", region)
	fmt.Print(report.BarBreakdown(title, comp, comm, 60))
}

// cmdManifest validates and summarises manifests.
func cmdManifest(args []string) {
	if len(args) == 0 {
		usage()
	}
	bad := 0
	for _, path := range args {
		m, err := obs.ReadManifest(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspect: %v\n", err)
			bad++
			continue
		}
		fmt.Printf("%s: valid (%s)\n", path, m.Schema)
		fmt.Printf("  binary=%s artefact=%s model=%s platform=%s seed=%d\n",
			m.Binary, orDash(m.Artefact), m.ModelVersion, orDash(m.Platform), m.Seed)
		if len(m.Knobs) > 0 {
			fmt.Printf("  knobs: %s\n", renderKV(m.Knobs))
		}
		if m.FaultSpec != "" || m.FaultDigest != "" {
			fmt.Printf("  faults: spec=%s digest=%s\n", orDash(m.FaultSpec), orDash(short(m.FaultDigest)))
		}
		fmt.Printf("  virtual=%ss wall=%ss metrics=%d artefacts=%d\n",
			report.FormatFloat(m.VirtualSeconds), report.FormatFloat(m.WallSeconds),
			len(m.Metrics), len(m.Artefacts))
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// cmdDiff compares the deterministic fields of two manifests.
func cmdDiff(args []string) {
	fs := flag.NewFlagSet("inspect diff", flag.ExitOnError)
	failOnDiff := fs.Bool("fail-on-diff", false, "exit nonzero when the manifests differ")
	tolerance := fs.Float64("tolerance", 0, "relative tolerance for float-valued fields (0 = exact)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	a, err := obs.ReadManifest(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := obs.ReadManifest(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	diffs := diffManifests(os.Stdout, a, b, *tolerance)
	if diffs == 0 {
		fmt.Println("manifests match (wall time ignored)")
	} else {
		fmt.Printf("%d difference(s)\n", diffs)
		if *failOnDiff {
			os.Exit(1)
		}
	}
}

// diffManifests prints every difference between two manifests to w and
// returns the count. Identity fields (binary, seed, knobs, hashes)
// compare exactly; numeric fields — virtual time and metric totals — go
// through the shared relative-tolerance comparator, so a -fail-on-diff
// gate with a tolerance no longer trips on a sub-noise float delta.
func diffManifests(w io.Writer, a, b *obs.Manifest, tol float64) int {
	diffs := 0
	note := func(format string, args ...any) {
		diffs++
		fmt.Fprintf(w, format+"\n", args...)
	}

	if a.Binary != b.Binary {
		note("binary: %s vs %s", a.Binary, b.Binary)
	}
	if a.Artefact != b.Artefact {
		note("artefact: %s vs %s", orDash(a.Artefact), orDash(b.Artefact))
	}
	if a.ModelVersion != b.ModelVersion {
		note("model_version: %s vs %s", a.ModelVersion, b.ModelVersion)
	}
	if a.Seed != b.Seed {
		note("seed: %d vs %d", a.Seed, b.Seed)
	}
	if ka, kb := renderKV(a.Knobs), renderKV(b.Knobs); ka != kb {
		note("knobs: {%s} vs {%s}", ka, kb)
	}
	if a.FaultSpec != b.FaultSpec || a.FaultDigest != b.FaultDigest {
		note("faults: %s/%s vs %s/%s", orDash(a.FaultSpec), short(a.FaultDigest),
			orDash(b.FaultSpec), short(b.FaultDigest))
	}
	if !within(a.VirtualSeconds, b.VirtualSeconds, tol) {
		note("virtual_seconds: %s vs %s (delta %s)",
			report.FormatFloat(a.VirtualSeconds), report.FormatFloat(b.VirtualSeconds),
			report.FormatFloat(b.VirtualSeconds-a.VirtualSeconds))
	}
	diffs += diffMetrics(w, a.Metrics, b.Metrics, tol)
	diffs += diffArtefacts(w, a.Artefacts, b.Artefacts)
	return diffs
}

// within reports whether a and b are equal within the relative tolerance
// tol (of the larger magnitude). tol 0 demands exact equality; tol 0.05
// accepts a 5% spread.
func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// metricsEqual compares the headline values of one metric within the
// relative tolerance (histograms on both count and sum).
func metricsEqual(a, b obs.Metric, tol float64) bool {
	if a.Kind == "histogram" || b.Kind == "histogram" {
		return a.Kind == b.Kind &&
			within(float64(a.Count), float64(b.Count), tol) &&
			within(float64(a.Sum), float64(b.Sum), tol)
	}
	return within(float64(a.Value), float64(b.Value), tol)
}

// diffMetrics prints per-metric deltas and returns the difference count.
func diffMetrics(w io.Writer, a, b map[string]obs.Metric, tol float64) int {
	names := unionKeys(a, b)
	diffs := 0
	for _, name := range names {
		ma, oka := a[name]
		mb, okb := b[name]
		switch {
		case !oka:
			diffs++
			fmt.Fprintf(w, "metric %s: only in B (%s)\n", name, metricValue(mb))
		case !okb:
			diffs++
			fmt.Fprintf(w, "metric %s: only in A (%s)\n", name, metricValue(ma))
		case !metricsEqual(ma, mb, tol):
			diffs++
			fmt.Fprintf(w, "metric %s: %s vs %s (delta %d)\n",
				name, metricValue(ma), metricValue(mb), metricDelta(ma, mb))
		}
	}
	return diffs
}

// metricValue renders the comparable value of a metric.
func metricValue(m obs.Metric) string {
	if m.Kind == "histogram" {
		return fmt.Sprintf("count=%d sum=%d", m.Count, m.Sum)
	}
	return fmt.Sprintf("%d", m.Value)
}

// metricDelta returns B-A of the headline value.
func metricDelta(a, b obs.Metric) int64 {
	if a.Kind == "histogram" {
		return b.Sum - a.Sum
	}
	return b.Value - a.Value
}

// diffArtefacts compares output hashes and returns the difference count.
func diffArtefacts(w io.Writer, a, b map[string]string) int {
	diffs := 0
	for _, name := range unionKeys(a, b) {
		ha, oka := a[name]
		hb, okb := b[name]
		switch {
		case !oka:
			diffs++
			fmt.Fprintf(w, "artefact %s: only in B\n", name)
		case !okb:
			diffs++
			fmt.Fprintf(w, "artefact %s: only in A\n", name)
		case ha != hb:
			diffs++
			fmt.Fprintf(w, "artefact %s: content differs (%s vs %s)\n", name, short(ha), short(hb))
		}
	}
	return diffs
}

func unionKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderKV(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, " ")
}

func short(sum string) string {
	if len(sum) > 12 {
		return sum[:12]
	}
	return sum
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inspect:", err)
	os.Exit(1)
}
