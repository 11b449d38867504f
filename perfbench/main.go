// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator in this process, checks every simulated
// output, and prints its metrics. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it runs the same workload with spans
// recorded around each call into a layer's public functions and reports
// per-layer numbers plus the tracing overhead. See README.md for the
// workloads and metrics, and run.py for the launcher that builds this
// program and runs each workload in a fresh process.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the parallelism every workload uses: worker goroutines and
// closed-loop clients alike. The reference host has 2 vCPUs.
const workers = 2

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload;
// BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0. BENCHMARK.json declares
// the same names and units.
var perLayer = []metricDef{
	// cold_paper
	{"core.simulate_s", "s"},
	{"dataflow.map_s", "s"},
	{"systolic.run_s", "s"},
	{"memory.system_s", "s"},
	{"vector.run_s", "s"},
	{"dram.model_s", "s"},
	{"partition.run_s", "s"},
	{"engine.parallel_eff", "ratio"},
	{"sim.cycles", "count"},
	{"systolic.folds", "count"},
	{"memory.dram_words", "count"},
	// sweep_shared
	{"analytical.tier1_s", "s"},
	{"batch.point_ms_p50", "ms"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.dup_computes", "count"},
	{"simcache.entries", "count"},
	// service_warm, service_registry
	{"job.decode_us", "us"},
	{"job.key_us", "us"},
	{"job.queue_wait_ms", "ms"},
	{"core.simulate_us", "us"},
	{"obsv.manifest_us", "us"},
	{"report.render_us", "us"},
	{"runstore.add_ms_p50", "ms"},
	{"runstore.add_ms_p99", "ms"},
	{"runstore.index_kb", "KB"},
	{"simcache.evictions", "count"},
	{"simcache.disk_mb", "MB"},
	{"stream.repeat_share", "ratio"},
	{"job.retained", "count"},
	{"go.heap_mb_end", "MB"},
	// every workload
	{"go.allocs_per_pass", "count"},
	{"go.alloc_mb_per_pass", "MB"},
	{"go.gc_count", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"cold_paper":       runColdPaper,
	"sweep_shared":     runSweepShared,
	"service_warm":     func(b *bench) error { return runService(b, false) },
	"service_registry": func(b *bench) error { return runService(b, true) },
}

//go:embed golden.json
var goldenJSON []byte

// bench is one run of one workload: its inputs, its scratch directory,
// the correctness tally and the metrics it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory, removed at exit
	tracer   *Tracer
	golden   map[string]string

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
	metrics  map[string]float64
	notes    []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cold_paper, sweep_shared, service_warm or service_registry")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 15, "how long to measure")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workDir = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for caches and registries")
		spanDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span file to")
		pin     = flag.Bool("pin", false, "print the digests of the fixed workloads' outputs as golden.json and exit")
	)
	flag.Parse()
	if *pin {
		if err := pinGolden(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		metrics:  make(map[string]float64),
	}
	if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
		os.Exit(1)
	}
	if b.traced {
		b.tracer = NewTracer()
	}
	var err error
	if b.work, err = os.MkdirTemp(mkdir(*workDir), b.workload+"-"); err == nil {
		err = run(b)
		if rmErr := os.RemoveAll(b.work); err == nil {
			err = rmErr
		}
	}
	if err == nil && b.traced {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err = b.tracer.WriteFile(path, b.workload, b.seed); err == nil {
			b.note("spans: %d written to %s", len(b.tracer.Spans()), path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if code := b.report(); code != 0 {
		os.Exit(code)
	}
}

// mkdir creates dir (and parents) and returns it; a failure surfaces in
// the MkdirTemp that follows.
func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// note adds a human-readable line to the run's output.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// set records a metric value.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.metrics[name] = v
	b.mu.Unlock()
}

// check counts one operation as attempted and, when ok is false, as
// failed, keeping the first failures' reasons for the report.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted.Add(1)
	if ok {
		return
	}
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// verifyJob counts one job as attempted and, when any of problems is
// non-empty, as failed.
func (b *bench) verifyJob(problems ...string) {
	for _, p := range problems {
		if p != "" {
			b.check(false, "%s", p)
			return
		}
	}
	b.check(true, "")
}

// pinnedProblem compares a digest with the one golden.json pins under id.
func (b *bench) pinnedProblem(id, digest string) string {
	if want, ok := b.golden[id]; !ok || want != digest {
		return fmt.Sprintf("%s: digest %s, golden.json pins %q", id, digest, want)
	}
	return ""
}

// timeSetup builds the workload's state reps times and records the
// median build time as setup_s. build returns a teardown for its state;
// every state but the last is torn down outside the timed region, and
// every build starts from a collected heap, so no build pays for the
// garbage of the one before.
func (b *bench) timeSetup(reps int, build func() (func(), error)) error {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		teardown, err := build()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < reps-1 && teardown != nil {
			teardown()
		}
	}
	b.set("setup_s", median(ds))
	b.note("setup: median %.4g s of %d builds", median(ds), reps)
	return nil
}

// memWindow brackets a measured window with runtime memory statistics.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish records the allocation and GC counts of the window, per pass.
func (w *memWindow) finish(b *bench, passes int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if passes < 1 {
		passes = 1
	}
	b.set("go.allocs_per_pass", float64(after.Mallocs-w.before.Mallocs)/float64(passes))
	b.set("go.alloc_mb_per_pass", float64(after.TotalAlloc-w.before.TotalAlloc)/float64(passes)/(1<<20))
	b.set("go.gc_count", float64(after.NumGC-w.before.NumGC))
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting at the
// current RSS, so the next peakRSS reads the peak of what ran since.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// passesFor runs pass until about d has elapsed, whole passes only: it
// stops once another pass would end further past d than the last pass
// took half of. Each pass starts from a collected heap, as a fresh CLI
// process would, and its peak RSS is taken on its own; peak_rss_mb is
// their median. It returns the number of passes run.
func (b *bench) passesFor(d time.Duration, pass func() error) (int64, error) {
	var n int64
	var last time.Duration
	var peaks []float64
	for t0 := time.Now(); time.Since(t0) < d-last/2; n++ {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return n, err
		}
		p0 := time.Now()
		if err := pass(); err != nil {
			return n, err
		}
		last = time.Since(p0)
		mb, err := peakRSS()
		if err != nil {
			return n, err
		}
		peaks = append(peaks, mb)
	}
	b.set("peak_rss_mb", median(peaks))
	return n, nil
}

// result is the last line of output: the run's machine-readable summary.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and the result object, and
// returns the exit code: non-zero when any output was wrong.
func (b *bench) report() int {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Printf("workload %s, seed %d, %s run\n", b.workload, b.seed, mode)
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		shown := strconv.FormatFloat(v, 'g', 6, 64)
		if !ok {
			shown = "0 (layer not exercised)"
		}
		fmt.Printf("  %-24s %s %s\n", d.name, shown, d.unit)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-24s %g (failed %d of %d attempted operations)\n", "error_rate", errRate, res.Failed, res.Attempted)
	for _, f := range b.failures {
		fmt.Println("  MISMATCH " + f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// setLatency records the p50 and p90 of per-job latencies and notes them
// with the p99 and the sample count behind them. The tail metric is the
// p90 because the service workloads' higher percentiles are set by
// garbage collection and host stalls: over ten seeds their p99 spread by
// up to a third of its median and their p95 by a fifth.
func (b *bench) setLatency(lat []time.Duration) {
	ms := durationsMS(lat)
	p50, p90, p99 := quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99)
	b.set("latency_p50_ms", p50)
	b.set("latency_p90_ms", p90)
	b.note("latency: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms over %d jobs (%d beyond p90, %d beyond p99)",
		p50, p90, p99, len(ms), len(ms)/10, len(ms)/100)
}

// setRepeatedLatency is setLatency for workloads that run the same jobs
// every pass: each job's latency is its median over the passes, so one
// GC cycle or host stall in one pass does not move the percentiles.
func (b *bench) setRepeatedLatency(byJob map[string][]time.Duration) {
	lat := make([]time.Duration, 0, len(byJob))
	for _, ds := range byJob {
		lat = append(lat, time.Duration(median(durationsMS(ds))*float64(time.Millisecond)))
	}
	b.setLatency(lat)
}
