// Command perfbench is the repository's benchmark: one process that
// starts the system under test in-process, drives one named workload
// from a seed, checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run is split into an untraced and a
// traced half, the isolated per-layer calls run on the corpus, and the
// metrics are the per-layer ones, the tracing overhead among them.
//
//	sh perfbench/run.sh --workload cluster-ingest --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and their per-workload meaning are described in
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir is where the run writes: the corpus cache, data dirs and the
// span file. It is relative to the checkout the benchmark runs in.
const buildDir = ".bench_build"

// genLateBoundMS is the open-loop generators' lateness bound: a run
// whose p99 send lateness exceeds it did not offer the load it claims,
// and is reported invalid instead of measured.
const genLateBoundMS = 50.0

// A service run times set-ups of the system under test at its start and
// at quiet points spread over the run, between chunks of its load
// phases, and times recoveries of a copied data dir at the same quiet
// points. On a shared host, the speed of such short steps drifts by
// ±15% over seconds, so setup_s and oneshot_s are medians over steps
// spread over much of the run rather than taken at one moment of it.
const (
	setupsAtStart      = 9
	setupsPerQuiet     = 4
	recoveriesPerQuiet = 5
)

// result is what one pass of a workload measured.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	e2e       map[string]float64
	layer     map[string]float64
	scrape    map[string]float64
	genLate   []float64
	setups    []float64 // seconds of each timed set-up
	samples   int       // latency samples behind p50/p95
	subs      int       // uploads acknowledged in the measured phases
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *result) attemptN(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

func (r *result) failN(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += n
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.attemptN(1)
	r.failN(1, format, args...)
}

type metricDef struct {
	name, unit string
}

// endToEnd is BENCHMARK.json's end_to_end list, in order. Every workload
// reports each; README.md gives their per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"oneshot_s", "s"},
	{"rss_peak_mb", "MB"},
}

// tail is the p95 beside p50. Every run prints it, but it is a per-layer
// metric, without a bound: from run to run on a 2-core host it spreads
// wider than the largest bound an end-to-end metric may have.
var tail = metricDef{"p95_ms", "ms"}

// measured is every end-to-end figure a pass takes, the tail included.
func measured() []metricDef { return append(endToEnd[:len(endToEnd):len(endToEnd)], tail) }

var workloads = map[string]bool{"cluster-ingest": true, "standalone-mixed": true, "paper-sim": true}

func main() {
	workload := flag.String("workload", "", "cluster-ingest, standalone-mixed or paper-sim")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	if !workloads[*workload] || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cluster-ingest|standalone-mixed|paper-sim --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ok, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) (bool, error) {
	printHost(workload, seed, seconds, traced)
	var c *corpus
	if workload != "paper-sim" {
		t0 := time.Now()
		var err error
		if c, err = loadCorpus(filepath.Join(buildDir, "corpus"), seed); err != nil {
			return false, fmt.Errorf("corpus: %w", err)
		}
		fmt.Printf("corpus: seed %d, %d first uploads + %d re-runs over %s, ready in %.2f s (in no metric)\n",
			seed, c.first, len(c.items)-c.first, strings.Join(corpusModels, ", "), time.Since(t0).Seconds())
	}
	pass := func(secs float64, tr *tracer) (*result, error) {
		var res *result
		var err error
		switch workload {
		case "cluster-ingest":
			res, err = runClusterIngest(c, secs, tr)
		case "standalone-mixed":
			res, err = runStandaloneMixed(c, secs, tr)
		default:
			res, err = runPaperSim(seed, tr)
		}
		if err != nil {
			return nil, err
		}
		res.e2e["setup_s"] = median(res.setups)
		res.e2e["rss_peak_mb"] = peakRSSMB()
		return res, nil
	}

	if !traced {
		res, err := pass(seconds, nil)
		if err != nil {
			return false, err
		}
		return report(res, res.e2e, endToEnd), nil
	}

	plain, err := pass(seconds/2, nil)
	if err != nil {
		return false, err
	}
	tr := newTracer()
	res, err := pass(seconds/2, tr)
	if err != nil {
		return false, err
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.errs = append(plain.errs, res.errs...)
	res.genLate = append(plain.genLate, res.genLate...)
	layers := perLayer(res, tr)
	layers["tail."+tail.name] = plain.e2e[tail.name]
	for _, m := range measured() {
		layers["overhead."+m.name] = res.e2e[m.name] - plain.e2e[m.name]
		fmt.Printf("overhead: %s untraced %.6g, traced %.6g %s\n", m.name, plain.e2e[m.name], res.e2e[m.name], m.unit)
	}
	if c == nil {
		// paper-sim has no corpus of its own; the isolated layer calls
		// run on the seed's service corpus all the same.
		if c, err = loadCorpus(filepath.Join(buildDir, "corpus"), seed); err != nil {
			return false, fmt.Errorf("corpus: %w", err)
		}
	}
	lr, err := runLayers(c)
	if err != nil {
		return false, fmt.Errorf("layers: %w", err)
	}
	for k, v := range lr.metrics {
		layers[k] = v
	}
	if workload == "cluster-ingest" {
		printBudget(lr.budget, plain.e2e["rate_per_s"])
	}
	spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	if err := tr.writeFile(spanFile); err != nil {
		return false, err
	}
	fmt.Printf("trace: spans written to %s\n", spanFile)
	return report(res, layers, perLayerDefs()), nil
}

// perLayer derives the traced pass's per-layer metrics from its spans,
// its /metrics deltas and its generator lateness. Metrics a workload
// does not exercise read 0.
func perLayer(res *result, tr *tracer) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range res.layer {
		out[k] = v
	}
	st := tr.stats()
	out["span.stream_batch_self_ms"] = st[spanStreamBatch].meanSelfMS
	out["span.replicate_self_ms"] = st[spanReplicate].meanSelfMS
	out["span.bins_self_ms"] = st[spanBins].meanSelfMS
	out["span.forward_rtt_ms"] = st[spanForward].meanMS
	out["span.ship_rtt_ms"] = st[spanShip].meanMS
	out["span.records_per_replicate"] = st[spanShip].meanN
	for _, call := range regenCalls {
		out["span.regen."+call.id+"_self_ms"] = st["regen."+call.id].meanSelfMS
	}
	d := res.scrape
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	subs := float64(res.subs)
	out["wal.fsyncs_per_sub"] = per(d["crowdd_wal_fsyncs_total"], subs)
	out["wal.bytes_per_sub"] = per(d["crowdd_wal_bytes_total"], subs)
	out["repl.applied_per_sub"] = per(d["crowdd_repl_applied_total"], subs)
	out["repl.ack_timeouts"] = d["crowdd_repl_ack_timeouts_total"]
	out["http.503_per_attempt"] = per(d["crowdd_wire_unreplicated_batches_total"], float64(res.attempted))
	out["bins.cache_hit_ratio"] = per(d["crowdd_bins_sketch_cached_reads_total"],
		d["crowdd_bins_sketch_cached_reads_total"]+d["crowdd_bins_sketch_recomputes_total"])
	out["ingest.accept_ratio"] = per(d["crowdd_accepted_total"], d["crowdd_stored_total"])
	out["bench.gen_late_p99_ms"] = quantile(res.genLate, 0.99)
	return out
}

// perLayerDefs is BENCHMARK.json's per_layer list.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"repl.apply_us_per_sub", "us"},
		{"wal.commit_us", "us"},
		{"wal.commit_batch_us", "us"},
		{"wal.replay_ms_per_10k", "ms"},
		{"wire.decode_ns_per_sub", "ns"},
		{"ingest.json_decode_ns_per_sub", "ns"},
		{"ingest.validate_ns_per_sub", "ns"},
		{"crowd.evaluate_ns_per_sub", "ns"},
		{"store.put_batch_ns_per_sub", "ns"},
		{"bins.fold_ms", "ms"},
		{"stats.sketch_cells", "count"},
		{"span.stream_batch_self_ms", "ms"},
		{"span.replicate_self_ms", "ms"},
		{"span.bins_self_ms", "ms"},
		{"span.forward_rtt_ms", "ms"},
		{"span.ship_rtt_ms", "ms"},
		{"span.records_per_replicate", "count"},
		{"wal.fsyncs_per_sub", "count"},
		{"wal.bytes_per_sub", "B"},
		{"repl.applied_per_sub", "count"},
		{"repl.ack_timeouts", "count"},
		{"http.503_per_attempt", "ratio"},
		{"bins.cache_hit_ratio", "ratio"},
		{"ingest.accept_ratio", "ratio"},
		{"thermal.step_ns", "ns"},
		{"device.step_ns", "ns"},
		{"accubench.iteration_ms", "ms"},
	}
	for _, call := range regenCalls {
		defs = append(defs, metricDef{"span.regen." + call.id + "_self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"experiments.cache_hit_ratio", "ratio"},
		metricDef{"fleetsim.cohort_step_ns_per_dev", "ns"},
		metricDef{"bench.gen_late_p99_ms", "ms"},
	)
	defs = append(defs, metricDef{"tail." + tail.name, tail.unit})
	for _, m := range measured() {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}

// report prints the metrics, the checks' verdict and the final JSON line,
// and returns whether the run was correct and valid.
func report(res *result, values map[string]float64, defs []metricDef) bool {
	late := quantile(res.genLate, 0.99)
	valid := late <= genLateBoundMS
	if len(res.genLate) > 0 {
		fmt.Printf("generator: p99 send lateness %.3f ms over %d scheduled sends (bound %.0f ms)\n", late, len(res.genLate), genLateBoundMS)
	}
	if !valid {
		fmt.Println("INVALID: the open-loop generator ran late beyond its bound; the run is not reported")
	}
	if res.samples > 0 {
		fmt.Printf("latency: p50 %.6g ms, p95 %.6g ms over %d samples (%d beyond p95)\n",
			res.e2e["p50_ms"], res.e2e["p95_ms"], res.samples, res.samples-int(0.95*float64(res.samples)))
	}
	for _, e := range res.errs {
		fmt.Println("check failed:", e)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("metric: %-40s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := res.failed == 0 && valid
	out := map[string]any{"correct": correct, "attempted": res.attempted, "failed": res.failed}
	if valid {
		out["metrics"] = metrics
	} else {
		out["metrics"] = map[string]any{}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	return correct
}

// printHost prints the run header: the host fingerprint and the run's
// parameters.
func printHost(workload string, seed int64, seconds float64, traced bool) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s, rev %s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
	fmt.Printf("run: workload %s, seed %d, %g s, trace %v\n", workload, seed, seconds, traced)
}

// gitRev reads the checkout's HEAD commit without running git; a
// checkout that is not a git repository reports "none".
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return ref
}

// peakRSSMB is the process's peak resident set, from VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setUp times n set-ups of the system under test and keeps the last one
// running. start gets a number that is new in the run, for the data
// directories.
func setUp(res *result, start func(i int) (*fleet, error), n int) (*fleet, error) {
	var fl *fleet
	for k := 0; k < n; k++ {
		if fl != nil {
			fl.close()
		}
		// As in a new process, the set-up faults its memory in, however
		// much garbage the run has made before it.
		debug.FreeOSMemory()
		t0 := time.Now()
		f, err := start(len(res.setups))
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		fl = f
	}
	return fl, nil
}

// printSetups prints the median and quartiles of a run's set-up times.
func printSetups(setups []float64) {
	fmt.Printf("setup: %d set-ups, median %.3f ms (quartiles %.3f, %.3f)\n",
		len(setups), 1e3*median(setups), 1e3*quantile(setups, 0.25), 1e3*quantile(setups, 0.75))
}

// setUpAgain times another n set-ups, while the system under test is
// idle, and shuts them down.
func setUpAgain(res *result, start func(i int) (*fleet, error), n int) error {
	fl, err := setUp(res, start, n)
	if err != nil {
		return err
	}
	fl.close()
	return nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
