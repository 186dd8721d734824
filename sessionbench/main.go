// Command sessionbench measures a Sentomist session end to end and layer by
// layer: it records testing runs in the emulator (or synthesizes their
// counters), anatomizes, features, scores and ranks them, and checks the
// output against an independent path of the program.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash sessionbench/run.sh --workload ctp-campaign --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics, measured untraced; with --trace 1 they are the
// per-layer metrics of traced sessions, and the difference between traced
// and untraced wall time is reported as tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric names one reported number. moves names, for a per-layer metric,
// the end-to-end metric and workload it should move.
type metric struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of a session sees, reported by every
// workload (BENCHMARK.json lists the same names, units and directions).
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "tail_s", unit: "s", better: "lower"},
	{name: "first_topk_s", unit: "s", better: "lower"},
}

// extras are end-to-end metrics that exist for one workload only. They are
// printed in the human-readable report, not in the JSON line, whose metric
// set is the same for every workload.
var extras = map[string][]metric{
	"ctp-campaign": {{name: "runs_per_s", unit: "1/s", better: "higher"}},
	"chain-record": {{name: "sim_mcycles_per_s", unit: "Mcycles/s", better: "higher"}},
	"large-online": {{name: "finalize_s", unit: "s", better: "lower"}},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metric{
	{"campaign.run_ms.p50", "ms", "lower", "runs_per_s, wall_s on ctp-campaign"},
	{"campaign.run_ms.p90", "ms", "lower", "runs_per_s, wall_s on ctp-campaign"},
	{"campaign.busy_ratio", "ratio", "higher", "runs_per_s on ctp-campaign"},
	{"apps.build_ms", "ms", "lower", "setup_s on chain-record"},
	{"sim.run_s", "s", "lower", "sim_mcycles_per_s, wall_s on chain-record"},
	{"sim.node_mcycles", "Mcycles", "higher", "sim_mcycles_per_s on chain-record"},
	{"sim.rounds", "count", "lower", "sim_mcycles_per_s on chain-record, runs_per_s on ctp-campaign"},
	{"sim.idle_jumps", "count", "higher", "sim_mcycles_per_s on chain-record, runs_per_s on ctp-campaign"},
	{"sim.solo_jumps", "count", "higher", "sim_mcycles_per_s on chain-record, runs_per_s on ctp-campaign"},
	{"sim.parallel_sections", "count", "higher", "sim_mcycles_per_s on chain-record"},
	{"sim.section_width", "count", "higher", "sim_mcycles_per_s on chain-record"},
	{"sim.horizon_barriers", "count", "lower", "sim_mcycles_per_s on chain-record"},
	{"sim.staged_events", "count", "lower", "sim_mcycles_per_s on chain-record"},
	{"sim.workers_parked", "count", "lower", "sim_mcycles_per_s on chain-record"},
	{"medium.deliveries", "count", "higher", "sim_mcycles_per_s on chain-record, runs_per_s on ctp-campaign"},
	{"trace.markers", "count", "lower", "alloc_mb, peak_rss_mb on chain-record"},
	{"trace.spill_mb", "MB", "lower", "tail_s on ctp-campaign"},
	{"trace.spill_blocks", "count", "lower", "tail_s on ctp-campaign"},
	{"trace.compactions", "count", "lower", "tail_s on ctp-campaign"},
	{"lifecycle.intervals", "count", "higher", "none (workload size)"},
	{"lifecycle.excluded", "count", "lower", "none (workload size)"},
	{"core.mine_s", "s", "lower", "little: chain-record wall_s is record-bound"},
	{"svm.score_s", "s", "lower", "little: chain-record wall_s is record-bound"},
	{"core.ingest_s", "s", "lower", "first_topk_s on large-online; tail_s, wall_s on ctp-campaign"},
	{"core.refit_s", "s", "lower", "first_topk_s on large-online; tail_s, wall_s on ctp-campaign"},
	{"core.refits", "count", "lower", "first_topk_s on large-online; tail_s, wall_s on ctp-campaign"},
	{"core.delta_ratio", "ratio", "higher", "first_topk_s on large-online; tail_s, wall_s on ctp-campaign"},
	{"core.blocks_decoded", "count", "lower", "tail_s, wall_s on ctp-campaign"},
	{"core.blocks_skipped", "count", "higher", "tail_s, wall_s on ctp-campaign"},
	{"core.samples_replayed", "count", "lower", "tail_s, wall_s on ctp-campaign"},
	{"svm.iters_per_refit", "count", "lower", "first_topk_s, tail_s on large-online"},
	{"svm.cache_hit_ratio", "ratio", "higher", "first_topk_s, tail_s on large-online"},
	{"svm.warm_ratio", "ratio", "higher", "first_topk_s on large-online"},
	{"svm.rebuilds", "count", "lower", "first_topk_s on large-online"},
	{"bench.trace_overhead_s", "s", "lower", "none (cost of tracing itself)"},
	{"bench.trace_overhead_ratio", "ratio", "lower", "none (cost of tracing itself)"},
}

// minSetups is how many times a run builds its inputs, at least, so setup_s
// is a median.
const minSetups = 5

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sessionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ctp-campaign, chain-record or large-online")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to keep running sessions (at least one runs)")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from traced sessions")
	size := fs.String("size", "full", "full or tiny (a quick pass for tests)")
	scratch := fs.String("scratch", ".bench_build/sessionbench", "directory for the spill store and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := sizePresets[*size]
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "sessionbench: -size must be full or tiny and -trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, sz, *scratch)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 2
	}
	defer os.RemoveAll(filepath.Join(*scratch, "spill"))

	h := hostInfo()
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)

	rep, tr, err := measure(w, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "sessionbench:", err)
		return 1
	}
	res := result{Correct: rep.checkErr == nil && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	if rep.checkErr != nil {
		fmt.Fprintf(stderr, "sessionbench: %s output check failed: %v\n", *name, rep.checkErr)
	}
	if rep.sessionErr != nil {
		fmt.Fprintf(stderr, "sessionbench: %s session failed: %v\n", *name, rep.sessionErr)
	}

	fmt.Fprintf(stdout, "workload %s seed %d size %s: %d untraced, %d traced sessions, %d setups\n",
		*name, *seed, *size, len(rep.plain), len(rep.traced), len(rep.setups))
	e2e := rep.endToEnd()
	for _, m := range append(append([]metric(nil), endToEnd...), extras[*name]...) {
		fmt.Fprintf(stdout, "  %-20s %14.6f %-9s (%s is better) median of %s\n", m.name, e2e[m.name], m.unit, m.better, rep.spread(m.name))
	}
	fmt.Fprintf(stdout, "  %-20s %14.6f %-9s (the first setup of the process, before the program's caches fill)\n", "setup_cold_s", rep.setups[0], "s")
	fmt.Fprintf(stdout, "  %-20s %14.6f %-9s (%d of %d operations failed)\n", "failed_ratio",
		float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", rep.failed, rep.attempted)
	if *traced == 1 {
		layers := rep.perLayer()
		fmt.Fprintln(stdout, "per-layer (traced sessions, median):")
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "  %-27s %14.6f %-8s -> %s\n", m.name, layers[m.name], m.unit, m.moves)
			res.Metrics[m.name] = value{layers[m.name], m.unit}
		}
		printBreakdown(stdout, tr, len(rep.traced))
		path := filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, h, *name, *seed, tr); err != nil {
			fmt.Fprintln(stderr, "sessionbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report is what one benchmark run measured.
type report struct {
	setups        []float64
	plain, traced []sample
	peakRSS       float64
	attempted     int
	failed        int
	sessionErr    error
	checkErr      error
}

// measure runs sessions for the given time (at least one; in traced mode
// untraced and traced sessions alternate, at least one of each), then
// checks the last session's output.
func measure(w workload, seconds float64, traceMode bool) (*report, *tracer, error) {
	rep := &report{}
	setup := func() error {
		d, err := w.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rep.setups = append(rep.setups, d.Seconds())
		return nil
	}
	// Extra setups give setup_s a median; each session builds its own too.
	for i := 0; i < minSetups-1; i++ {
		if err := setup(); err != nil {
			return nil, nil, err
		}
	}
	var tr *tracer
	if traceMode {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		if err := setup(); err != nil {
			return nil, nil, err
		}
		var str *tracer
		if traceMode && i%2 == 1 {
			str = tr
		}
		runtime.GC()
		cpu0, alloc0 := cpuTime(), heapAllocated()
		root := str.startSession("session")
		s, err := w.session(str, root)
		str.end(root)
		rep.attempted += w.ops()
		if err != nil {
			rep.failed++
			rep.sessionErr = err
			break
		}
		s["cpu_s"] = (cpuTime() - cpu0).Seconds()
		s["alloc_mb"] = float64(heapAllocated()-alloc0) / 1e6
		if str != nil {
			rep.traced = append(rep.traced, s)
		} else {
			rep.plain = append(rep.plain, s)
		}
		if time.Since(start).Seconds() >= seconds && len(rep.plain) > 0 && (!traceMode || len(rep.traced) > 0) {
			break
		}
	}
	rep.peakRSS = peakRSS()
	if rep.sessionErr == nil {
		rep.attempted++
		if rep.checkErr = w.check(); rep.checkErr != nil {
			rep.failed++
		}
	}
	return rep, tr, nil
}

// medians returns the per-key median over samples.
func medians(samples []sample) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// endToEnd returns the untraced sessions' medians plus setup and memory.
func (r *report) endToEnd() map[string]float64 {
	m := medians(r.plain)
	m["setup_s"] = median(r.setups)
	m["peak_rss_mb"] = r.peakRSS / 1e6
	return m
}

// spread describes the samples behind an end-to-end median: their count
// and quartiles.
func (r *report) spread(name string) string {
	var xs []float64
	switch name {
	case "setup_s":
		xs = r.setups
	case "peak_rss_mb":
		return "1 (process peak before the output check)"
	default:
		for _, s := range r.plain {
			xs = append(xs, s[name])
		}
	}
	return fmt.Sprintf("%d, quartiles [%.6f, %.6f]", len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// perLayer returns the traced sessions' medians plus the tracing overhead
// against the untraced sessions' wall time.
func (r *report) perLayer() map[string]float64 {
	m := medians(r.traced)
	plain := medians(r.plain)["wall_s"]
	m["bench.trace_overhead_s"] = m["wall_s"] - plain
	if plain > 0 {
		m["bench.trace_overhead_ratio"] = m["bench.trace_overhead_s"] / plain
	}
	return m
}

// printBreakdown prints, per span name, the mean per traced session of its
// count, total time and self time: where a session's time goes.
func printBreakdown(out io.Writer, tr *tracer, sessions int) {
	if tr == nil || sessions == 0 {
		return
	}
	total, self, count := spanTotals(tr.spans)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	n := float64(sessions)
	fmt.Fprintf(out, "span breakdown (mean per traced session):\n  %-30s %9s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		fmt.Fprintf(out, "  %-30s %9.1f %12.6f %12.6f\n", name, float64(count[name])/n, total[name]/n, self[name]/n)
	}
}

// writeSpans writes every recorded span with the host block.
func writeSpans(path string, h host, workload string, seed uint64, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Host     host   `json:"host"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{h, workload, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
