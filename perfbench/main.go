// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the real packages — a durable TCP cluster, a
// crash-rejoin cycle on a durable loopback fleet, or the simulator's
// epoch step — checks the outputs, and prints every metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// workload runs twice, untraced and then traced, and the metrics are the
// per-layer ones: timings taken by decorating the layers' public
// interfaces, counters read from the nodes, the untraced pass's
// workload-specific figures (prefix "e2e."), and the tracing overhead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload kv-update --seed 1 --seconds 20 --trace 0
//
// --workload all runs the four workloads in turn and names each metric
// <workload>.<metric>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOpts are one pass's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil when untraced
	dir     string  // directory for this pass's data dirs
}

// workDir holds the data dirs of running passes and the span files of
// traced runs, relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/run"

// setups is how many set-ups a pass times; setup_s is their median.
// A traced pass reports no setup_s, so it sets up once.
func setups(o runOpts) int {
	if o.tr != nil {
		return 1
	}
	return 5
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*result, error){
	"kv-update": func(o runOpts) (*result, error) { return runKV(kvSpec{putFrac: 0.5, w: 1, r: 1}, o) },
	"kv-read":   func(o runOpts) (*result, error) { return runKV(kvSpec{putFrac: 0.05, w: 2, r: 2}, o) },
	"rejoin":    runRejoin,
	"sim-drift": runSimDrift,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"kv-update", "kv-read", "rejoin", "sim-drift"}

// endToEnd lists the gated metrics every workload reports, in output
// order. Each workload maps them onto its own unit of work; see
// README.md. The primary op's rate (ops_per_s) is reported but not
// gated: on the reference VM its run-to-run spread on the kv workloads
// reached 0.35, beyond any bound a gate may use.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_us", "us"},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: kv-update, kv-read, rejoin, sim-drift, or all of them in turn")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	// With several workloads, each metric is named <workload>.<metric>,
	// and the run is correct if every workload's is.
	out := output{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		fmt.Printf("# === %s\n", n)
		one, err := measure(n, o, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		out.Correct = out.Correct && one.Correct
		out.Attempted += one.Attempted
		out.Failed += one.Failed
		for k, m := range one.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			out.Metrics[k] = m
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload: an untraced pass, and with traced a
// traced pass after it. It prints both reports and returns the result
// line, with the end-to-end metrics when untraced and the per-layer
// ones when traced.
func measure(name string, o runOpts, traced bool) (output, error) {
	dir, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return output{}, err
	}
	// Syncing after the data dirs are deleted keeps this run's writeback
	// and block frees out of the next run's measurements.
	defer syscall.Sync()
	defer os.RemoveAll(dir)
	o.dir = dir
	fn := workloads[name]

	plain, err := fn(o)
	if err != nil {
		return output{}, err
	}
	plain.print("untraced")
	out := output{Correct: plain.correct(), Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{finite(plain.e2e[m.name]), m.unit}
		}
		return out, nil
	}
	o.tr = newTracer()
	o.dir = filepath.Join(dir, "traced")
	tr, err := fn(o)
	if err != nil {
		return output{}, err
	}
	tr.print("traced")
	spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.tsv", name, o.seed))
	if err := o.tr.writeSpans(spanFile); err != nil {
		return output{}, err
	}
	fmt.Printf("# spans written to %s\n", spanFile)
	tr.layer("trace.overhead_p50_pct", 100*ratio(tr.e2e["p50_us"]-plain.e2e["p50_us"], plain.e2e["p50_us"]), "%")
	tr.layer("trace.overhead_ops_pct", 100*ratio(plain.e2e["ops_per_s"]-tr.e2e["ops_per_s"], plain.e2e["ops_per_s"]), "%")
	tr.layer("trace.spans", float64(len(o.tr.spans)), "count")
	tr.layer("trace.spans_dropped", float64(o.tr.dropped), "count")
	tr.layer("e2e.ops_per_s", plain.e2e["ops_per_s"], "1/s")
	tr.layer("e2e.op_error_ratio", ratio(float64(plain.failed), float64(plain.attempted)), "ratio")
	for _, r := range plain.rows {
		tr.layer("e2e."+r.name, r.value, r.unit)
	}
	out.Correct = out.Correct && tr.correct()
	out.Attempted += tr.attempted
	out.Failed += tr.failed
	for _, l := range perLayer {
		out.Metrics[l.name] = metric{finite(tr.layers[l.name].Value), l.unit}
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one workload-specific end-to-end figure with its sample count.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one pass's outcome.
type result struct {
	attempted, failed int64
	errs              []string // first correctness failures
	e2e               map[string]float64
	rows              []row
	layers            map[string]metric
	layerNote         map[string]string // sample counts of per-layer percentiles
	primaryN, windows int
	notes             []string // extra report lines, such as latency deciles
}

// newResult starts a pass's result from its set-up times in seconds;
// setup_s is their median.
func newResult(setups []float64) *result {
	r := &result{e2e: map[string]float64{}, layers: map[string]metric{}, layerNote: map[string]string{}}
	r.notes = append(r.notes, fmt.Sprintf("set-ups (s): %.4f", setups))
	r.e2e["setup_s"] = median(setups)
	return r
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) named(name string, v float64, unit string, n int) {
	r.rows = append(r.rows, row{name, v, unit, n})
}

func (r *result) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// pctLayer reports the q-quantile of xs as a per-layer metric and keeps
// its sample count for the report. One that lacks minBeyond samples
// beyond it reads 0, and the report gives the highest percentile that
// has them instead.
func (r *result) pctLayer(name string, xs []float64, q float64, unit string) float64 {
	v := softQuantile(xs, q)
	r.layer(name, v, unit)
	r.layerNote[name] = fmt.Sprintf("n=%d", len(xs))
	if hq, hv, ok := highestQuantile(xs); v == 0 && ok {
		r.layerNote[name] += fmt.Sprintf("; p%.4g=%.4f", 100*hq, hv)
	}
	return v
}

// deciles adds a report line with the p10..p90 of xs: a median that
// sits in a gap between two groups of samples shows there.
func (r *result) deciles(what string, xs []float64) {
	var ds []float64
	for q := 1; q <= 9; q++ {
		ds = append(ds, softQuantile(xs, float64(q)/10))
	}
	r.notes = append(r.notes, fmt.Sprintf("%s deciles p10..p90 (n=%d): %.1f", what, len(xs), ds))
}

// setTimings fills the gated metrics from the primary operation's
// windows.
func (r *result) setTimings(ws []window) error {
	rates, p50s, err := windowStats(ws)
	if err != nil {
		return err
	}
	if len(ws) > 1 {
		// In run order, to show interference and drift within a run.
		r.notes = append(r.notes, fmt.Sprintf("window rates (1/s): %.0f", rates),
			fmt.Sprintf("window p50s (us): %.1f", p50s))
	}
	r.e2e["ops_per_s"], r.e2e["p50_us"] = median(append([]float64(nil), rates...)), median(append([]float64(nil), p50s...))
	r.windows = len(ws)
	r.primaryN = 0
	for _, w := range ws {
		r.primaryN += len(w.lat)
	}
	return nil
}

// print writes the human-readable report, one metric per line.
func (r *result) print(pass string) {
	fmt.Printf("# %s pass: attempted %d, failed %d\n", pass, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("#   check failed: %s\n", e)
	}
	for _, m := range endToEnd {
		note := ""
		if m.name == "p50_us" {
			note = fmt.Sprintf("  (primary op, n=%d, median of %d windows)", r.primaryN, r.windows)
		}
		fmt.Printf("# %-28s %14.4f %s%s\n", m.name, r.e2e[m.name], m.unit, note)
	}
	fmt.Printf("# %-28s %14.4f %s  (primary op, median of %d windows; not gated)\n", "ops_per_s", r.e2e["ops_per_s"], "1/s", r.windows)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	if r.attempted > 0 {
		fmt.Printf("# %-28s %14.6f %s\n", "op_error_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	}
	for _, w := range r.rows {
		fmt.Printf("# %-28s %14.4f %s  (n=%d)\n", w.name, w.value, w.unit, w.n)
	}
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if s, ok := r.layerNote[n]; ok {
			note = "  (" + s + ")"
		}
		fmt.Printf("#   %-40s %14.4f %s%s\n", n, r.layers[n].Value, r.layers[n].Unit, note)
	}
}

// timedSetups builds the system n times, keeps the last build for the
// measured run, tears the others down, and returns the median set-up
// time in seconds.
func timedSetups[T any](n int, build func(i int) (T, error), teardown func(T)) ([]float64, T, error) {
	var (
		times []float64
		sys   T
		err   error
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(sys)
			// Flush the torn-down set-up's writes and deletes (and the
			// discards those cause) before timing the next one.
			syscall.Sync()
		}
		start := time.Now()
		sys, err = build(i)
		if err != nil {
			return nil, sys, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Flush what the last set-up wrote, and collect what the torn-down
	// ones left on the heap, before the measured run.
	syscall.Sync()
	runtime.GC()
	return times, sys, nil
}

// procWriteBytes reads the process's storage write_bytes counter; 0
// where /proc/self/io is unavailable.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// goLayers reports Go runtime costs over the measured window.
func (r *result) goLayers(before, after *runtime.MemStats, elapsed time.Duration, ops float64) {
	r.layer("go.gc_pause_ms_per_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/elapsed.Seconds(), "ms/s")
	r.layer("go.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), ops), "1/op")
}

// policyLayers reports the live cluster's replicate, migrate and
// suicide decisions per epoch.
func (r *result) policyLayers(decisions [3]int64, epochs int) {
	for i, n := range []string{"replicate", "migrate", "suicide"} {
		r.layer("policy."+n+"_per_epoch", ratio(float64(decisions[i]), float64(epochs)), "1/epoch")
	}
}

// repairLayers reports transfer-session and anti-entropy counters.
func (r *result) repairLayers(before, after clusterCounters) {
	x0, x1 := before.xfer, after.xfer
	r.layer("xfer.full_sessions", float64(x1.FullSessions-x0.FullSessions), "count")
	r.layer("xfer.delta_sessions", float64(x1.DeltaSessions-x0.DeltaSessions), "count")
	r.layer("xfer.one_frame", float64(x1.OneFrame-x0.OneFrame), "count")
	r.layer("xfer.bytes_sent", float64(x1.BytesSent-x0.BytesSent), "B")
	r.layer("xfer.bytes_saved", float64(x1.BytesSaved-x0.BytesSaved), "B")
	r.layer("ae.rounds", float64(after.ae.Rounds-before.ae.Rounds), "count")
	r.layer("ae.payload_bytes", float64(after.ae.PayloadBytes-before.ae.PayloadBytes), "B")
	r.layer("ae.healed", float64(after.ae.Healed-before.ae.Healed), "count")
}

// transportLayers derives the transport and node metrics from a traced
// pass's decorator timings; ops, puts and gets are client operations.
func (r *result) transportLayers(tr *tracer, ops, puts, gets float64) {
	if tr == nil {
		return
	}
	for _, g := range kindGroups {
		send := tr.kindSamples(tr.send, g)
		handle := tr.kindSamples(tr.handle, g)
		r.layer("transport.send."+g+".count", float64(len(send)), "count")
		sendP50 := r.pctLayer("transport.send."+g+".p50_us", send, 0.5, "us")
		r.pctLayer("transport.send."+g+".p99_us", send, 0.99, "us")
		handleP50 := r.pctLayer("node.handle."+g+".p50_us", handle, 0.5, "us")
		r.pctLayer("node.handle."+g+".p99_us", handle, 0.99, "us")
		if sendP50 > 0 && handleP50 > 0 {
			r.layer("node.wire_overhead."+g+"_us", sendP50-handleP50, "us")
		}
		switch g {
		case "sync":
			r.layer("node.syncs_per_put", ratio(float64(len(send)), puts), "1/op")
		case "get":
			r.layer("node.forwards_per_get", ratio(float64(len(send)), gets), "1/op")
		}
	}
	r.layer("transport.bytes_per_op", ratio(float64(tr.sendBytes.Load()), ops), "B/op")
	r.layer("transport.send_errors", float64(tr.sendErrs.Load()), "count")
	for _, ph := range []string{"flush", "run"} {
		t := tr.timer("node.epoch." + ph)
		r.pctLayer("node.epoch."+ph+"_p50_us", t, 0.5, "us")
		r.pctLayer("node.epoch."+ph+"_p99_us", t, 0.99, "us")
	}
}

// finite guards JSON output against a metric that is not a number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
