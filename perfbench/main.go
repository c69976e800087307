// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock window, checks every output it gets, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object with the correctness verdict and the metrics.
//
//	perfbench -workload paper-32 -seed 1 -seconds 25 -trace 0
//	perfbench -workload all -seed 1 -seconds 25
//
// -trace 0 measures the end-to-end metrics with observability off.
// -trace 1 is the separate traced run: it adds span recording, queue
// sampling and live snapshots to the simulations, profiles the CPU, and
// reports the per-layer metrics instead. -workload all runs the four
// workloads in turn in this one process. Any failed correctness check
// makes the command exit 1. README.md describes the workloads and
// metrics; run.sh builds the command and cmd/simd before running it.
package main

import (
	"bufio"
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

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

type unitTable []metricDef

// endToEnd is the metric set of an untraced run, the same for every
// workload; BENCHMARK.json lists it with its bounds. A "campaign" is the
// unit of work a user waits for: one pass over a simulation workload's
// runs, or one stress campaign submitted to simd.
var endToEnd = unitTable{
	{"setup_s", "s"},
	{"refs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"campaigns_per_s", "1/s"},
	{"campaign_p50_ms", "ms"},
	{"campaign_p95_ms", "ms"},
}

// cpuLayers are the layers the traced run's CPU time is split into: the
// dircoh/internal packages reported one by one, "other" for the remaining
// internal packages, and "runtime" for samples with no internal frame.
var cpuLayers = []string{"apps", "bitset", "cache", "core", "machine", "mesh", "obs", "protocol", "sim", "sparse", "tango", "other", "runtime"}

// perLayer is the metric set of a traced run. Every workload reports each
// of them; a layer the workload does not reach reads 0.
var perLayer = func() unitTable {
	t := unitTable{
		{"net_msgs", "count"}, {"inval_msgs", "count"}, {"dir_kbits", "kbit"},
		{"apps.build_s", "s"}, {"apps.refs", "count"},
		{"machine.new_s", "s"}, {"machine.new_alloc_mb", "MB"},
		{"machine.run_s", "s"}, {"machine.events", "count"}, {"machine.ns_per_event", "ns"},
		{"machine.run_allocs_per_event", "count"}, {"machine.dir_util", "ratio"},
		{"machine.bus_util", "ratio"}, {"machine.shards", "count"},
		{"core.inval_events", "count"}, {"core.invals_per_event", "count"},
		{"core.extraneous_invals", "count"}, {"core.entry_bits", "bit"},
		{"sparse.lookups", "count"}, {"sparse.hit_ratio", "ratio"}, {"sparse.allocs", "count"},
		{"sparse.evictions", "count"}, {"sparse.repl_invals", "count"}, {"sparse.peak_entries", "count"},
		{"cache.accesses", "count"}, {"cache.l1_hit_ratio", "ratio"}, {"cache.l2_hit_ratio", "ratio"},
		{"cache.misses", "count"}, {"cache.evictions", "count"}, {"cache.dirty_evictions", "count"},
		{"mesh.msgs", "count"}, {"mesh.avg_hops", "count"}, {"mesh.stalls", "count"},
		{"mesh.port_backlog_p99", "cycles"},
		{"protocol.merged_reads", "count"}, {"protocol.gate_waits", "count"},
		{"protocol.lock_retries", "count"}, {"protocol.rac_peak", "count"},
		{"protocol.dir_queue_p99", "cycles"},
	}
	for _, class := range txClasses {
		t = append(t, metricDef{"tx." + class + ".p50_cycles", "cycles"}, metricDef{"tx." + class + ".p99_cycles", "cycles"})
	}
	t = append(t, unitTable{
		{"obs.overhead_ratio", "ratio"}, {"obs.spans", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"campaign.queue_wait_ms_p50", "ms"}, {"campaign.job_ms_p50", "ms"},
		{"campaign.finalize_ms_p50", "ms"}, {"campaign.disk_write_kb", "KB"},
		{"campaign.server_cpu_ms", "ms"},
		{"simd.submit_ms_p50", "ms"}, {"simd.submit_ms_p95", "ms"}, {"simd.status_ms_p50", "ms"},
		{"simd.result_ms_p50", "ms"}, {"simd.http_non2xx", "count"},
		{"profile.cpu_s", "s"}, {"profile.samples", "count"},
	}...)
	for _, l := range cpuLayers {
		t = append(t, metricDef{l + ".cpu_s", "s"})
	}
	return t
}()

// txClasses are the transaction classes whose tx.lat.<class> latency
// histograms the traced run reads.
var txClasses = []string{"read", "write", "upgrade", "evict"}

// options are the command-line settings one workload runs under.
type options struct {
	seed    int64
	window  time.Duration
	trace   bool
	outDir  string
	simdBin string
}

// report collects one workload's metrics, operation counts and the
// engines its simulations actually ran on.
type report struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	engines   map[string]int
	spans     *hostSpans
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]float64{}, engines: map[string]int{}, spans: newHostSpans()}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// failf records one failed operation and says why on standard error.
func (r *report) failf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the engines the workload ran on and every metric it
// measured as "metric <workload> <name> <value> <unit>" lines, and returns
// its result, which carries the metric set of the mode.
func (r *report) finish(trace bool) result {
	set := endToEnd
	if trace {
		set = perLayer
	}
	engines := make([]string, 0, len(r.engines))
	for e, n := range r.engines {
		engines = append(engines, fmt.Sprintf("%s runs=%d", e, n))
	}
	sort.Strings(engines)
	for _, e := range engines {
		fmt.Printf("engine %s %s\n", r.workload, e)
	}
	out := result{Metrics: map[string]metric{}}
	for _, m := range set {
		v, ok := r.metrics[m.name]
		if !ok {
			r.failf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metric{v, m.unit}
	}
	for _, m := range append(append(unitTable(nil), endToEnd...), perLayer...) {
		if v, ok := r.metrics[m.name]; ok {
			fmt.Printf("metric %s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		}
	}
	if r.attempted == 0 {
		r.failf("no operation was attempted")
		r.attempted = 1
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	fmt.Printf("failed_frac %s %s (%d of %d operations failed or were refused)\n",
		r.workload, strconv.FormatFloat(float64(r.failed)/float64(r.attempted), 'g', -1, 64), r.failed, r.attempted)
	out.Correct = r.failed == 0
	return out
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report){
	"paper-32":    runSim,
	"sparse-lu":   runSim,
	"scale-1024":  runSim,
	"simd-stress": runSimd,
}

var workloadOrder = []string{"paper-32", "sparse-lu", "scale-1024", "simd-stress"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-32, sparse-lu, scale-1024, simd-stress, or all")
		seed     = flag.Int64("seed", 1, "input seed (workload generators, machine seed, stress-campaign seeds)")
		seconds  = flag.Int("seconds", 25, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		outDir   = flag.String("out", ".bench_build/perfbench-out", "directory for profiles, span logs and simd data")
		simdBin  = flag.String("simd", ".bench_build/simd", "simd server binary (built by run.sh)")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		usagef("unknown -workload %q", *workload)
	}
	if *seconds <= 0 {
		usagef("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		usagef("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *outDir, simdBin: *simdBin}
	printHost(o.seed, *trace)

	all := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for i, name := range names {
		if i > 0 {
			// One process runs every workload: reset the peak-RSS mark so
			// each reports its own.
			if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
				fatalf("resetting peak RSS between workloads: %v", err)
			}
		}
		rep := newReport(name)
		workloads[name](o, rep)
		if o.trace {
			if err := rep.spans.writeJSONL(filepath.Join(o.outDir, "spans-"+name+".jsonl")); err != nil {
				rep.failf("writing spans: %v", err)
			}
		}
		last = rep.finish(o.trace)
		all.Correct = all.Correct && last.Correct
		all.Attempted += last.Attempted
		all.Failed += last.Failed
		for k, v := range last.Metrics {
			all.Metrics[name+"."+k] = v
		}
		if len(names) > 1 {
			printJSON(last)
		}
	}
	if len(names) > 1 {
		last = all
	}
	printJSON(last)
	if !last.Correct {
		os.Exit(1)
	}
}

func printJSON(r result) {
	data, err := json.Marshal(r)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

// printHost prints the provenance every record carries: host CPUs, the
// Go scheduler width, toolchain, source revision, seed and mode.
func printHost(seed int64, trace int) {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s vcs=%s%s seed=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, dirty, seed, trace)
}

func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSS returns a process's peak resident set (VmHWM in
// /proc/<pid>/status) in MB.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostSpans records the benchmark's own host-time spans around each call
// it makes into a layer. Spans stay in memory until the run ends; spans
// of one simulation pass or one campaign share a trace identifier.
type hostSpans struct {
	mu    sync.Mutex
	t0    time.Time
	spans []hostSpan
}

type hostSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newHostSpans() *hostSpans { return &hostSpans{t0: time.Now()} }

// start opens a span and returns its ID (IDs start at 1; parent 0 is a
// root).
func (h *hostSpans) start(trace, name string, parent int) int {
	now := time.Since(h.t0).Nanoseconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spans = append(h.spans, hostSpan{ID: len(h.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(h.spans)
}

// end closes span id and returns its duration.
func (h *hostSpans) end(id int) time.Duration {
	now := time.Since(h.t0).Nanoseconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

func (h *hostSpans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	h.mu.Lock()
	for _, s := range h.spans {
		if err := enc.Encode(s); err != nil {
			h.mu.Unlock()
			f.Close()
			return err
		}
	}
	h.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
