// Package cli holds the plumbing shared by every command: uniform error
// reporting and the observability flag set (-trace, -metrics, -cpuprofile,
// -memprofile, and optionally a -pprof server) with its start/stop
// lifecycle. Commands declare their own flags, add Obs, parse, then wrap
// the run in Start/Stop.
//
// The -pprof server doubles as the live-observation endpoint: alongside
// /debug/pprof it serves /metrics and /progress, JSON views over the
// in-run snapshots that simulations publish into the Live registry
// (machine.Config.Live), so a long sweep can be watched mid-flight with
// plain curl.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"dircoh/internal/check"
	"dircoh/internal/exp"
	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// BindError reports that the -pprof (or any command's listen) address
// could not be bound — most often because another instance already holds
// it. It wraps the net error so callers can still reach the syscall
// detail with errors.As.
type BindError struct {
	Addr string
	Err  error
}

func (e *BindError) Error() string { return fmt.Sprintf("cannot bind %s: %v", e.Addr, e.Err) }
func (e *BindError) Unwrap() error { return e.Err }

// Listen binds addr, wrapping failures in *BindError so every command
// reports an already-taken address the same way.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &BindError{Addr: addr, Err: err}
	}
	return ln, nil
}

// shutdownTimeout bounds how long Stop waits for in-flight -pprof
// requests to finish before closing connections hard.
const shutdownTimeout = 5 * time.Second

// Fatalf prints "tool: message" to stderr, stops every observability
// session still running (so traces, spans, violation records, metrics and
// profiles reach their files, as a deferred Stop would have written them)
// and exits with status 1 — the one way commands report runtime failures.
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	stopRunning()
	os.Exit(1)
}

// running holds the sessions Start opened and Stop has not closed, which
// a failure exit stops.
var (
	runningMu sync.Mutex
	running   []*Obs
)

// stopRunning stops every running session. A Stop that fails exits
// through Fatalf again, which finds the session already gone.
func stopRunning() {
	runningMu.Lock()
	open := running
	running = nil
	runningMu.Unlock()
	for i := len(open) - 1; i >= 0; i-- {
		open[i].Stop()
	}
}

// setRunning records (on) or forgets (off) o as a running session.
func setRunning(o *Obs, on bool) {
	runningMu.Lock()
	defer runningMu.Unlock()
	for i, r := range running {
		if r == o {
			running = append(running[:i], running[i+1:]...)
			break
		}
	}
	if on {
		running = append(running, o)
	}
}

// Usagef is Fatalf for bad flag values; it exits with status 2, the
// convention flag.ExitOnError uses.
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// Positive exits with a usage error naming the first of the named int
// flags whose parsed value is not positive. Call after flag.Parse.
func Positive(tool string, names ...string) {
	for _, name := range names {
		f := flag.Lookup(name)
		if n, _ := f.Value.(flag.Getter).Get().(int); n <= 0 {
			Usagef(tool, "-%s must be positive (got %s)", name, f.Value)
		}
	}
}

// Check is Fatalf(tool, "%v", err) when err is non-nil, a no-op otherwise.
func Check(tool string, err error) {
	if err != nil {
		Fatalf(tool, "%v", err)
	}
}

// Obs bundles the observability flags every simulation command shares.
type Obs struct {
	tool string

	tracePath   string
	spanPath    string
	checkOn     bool
	checkPath   string
	sampleEvery uint64
	metricsPath string
	cpuPath     string
	memPath     string
	pprofAddr   string
	faultSpec   string
	deadline    time.Duration

	// The JSONL streams' writers, one per file (see outputs): flags that
	// name one file share its writer.
	traceOut *obs.JSONLSink
	spanOut  *obs.JSONLSink
	checkOut *obs.JSONLSink
	streams  []*obs.JSONLSink

	serverOn bool      // EnableServer was called (the -pprof flag exists)
	live     *obs.Live // live-run registry the server reads; nil until Start
	ln       net.Listener
	srv      *http.Server
	srvDone  chan struct{} // closed when the serve loop returns

	mu      sync.Mutex // serializes metrics blocks from concurrent runs
	metrics *os.File
	cpu     *os.File

	started bool // Start has run and Stop has not
}

// NewObs registers the shared observability flags on the default flag set
// and returns the handle the command drives them through. Call before
// flag.Parse.
func NewObs(tool string) *Obs {
	o := &Obs{tool: tool}
	flag.StringVar(&o.tracePath, "trace-out", "", "write a JSONL coherence-event trace to this file ('-' for stdout)")
	flag.StringVar(&o.spanPath, "span-out", "", "write JSONL transaction spans to this file ('-' for stdout; may name the -trace-out file to interleave both streams)")
	flag.BoolVar(&o.checkOn, "check", false, "run the coherence invariant checker alongside the simulation; violations go to stderr (or -check-out) and fail the command")
	flag.StringVar(&o.checkPath, "check-out", "", "write JSONL invariant-violation records to this file ('-' for stdout; may name the -trace-out/-span-out file to interleave; implies -check)")
	flag.Uint64Var(&o.sampleEvery, "sample-every", 0, "sample queue depths every N cycles into histograms (0 disables)")
	flag.StringVar(&o.metricsPath, "metrics", "", "write per-run metrics dumps (name value lines) to this file")
	flag.StringVar(&o.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memPath, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&o.faultSpec, "faults", "", "inject network faults: drop=P,dup=P,delay=P:MAX,outage=P:LEN:EVERY[,seed=N] (see mesh.ParseFaults; empty disables)")
	flag.DurationVar(&o.deadline, "deadline", 0, "abort a run still going after this wall-clock duration, with the liveness watchdog's diagnostic dump (0 disables)")
	return o
}

// EnableServer additionally registers -pprof, which serves
// net/http/pprof's /debug/pprof endpoints plus the live /metrics and
// /progress JSON views while the command runs. Call before flag.Parse.
func (o *Obs) EnableServer() *Obs {
	o.serverOn = true
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve /debug/pprof, /metrics, and /progress on this address (e.g. localhost:6060)")
	return o
}

// Live returns the registry of in-flight runs the -pprof server reads, or
// nil when the server is off (EnableServer not called, or -pprof unset).
// Commands hand each simulation a slot via Live().Run(label) wired into
// machine.Config.Live; valid after Start.
func (o *Obs) Live() *obs.Live { return o.live }

// ServerAddr returns the address the -pprof server is listening on
// ("" when it is not running). With "-pprof 127.0.0.1:0" the kernel picks
// the port; this reports the resolved one.
func (o *Obs) ServerAddr() string {
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// serveMetrics renders label -> latest published metrics snapshot.
func (o *Obs) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]obs.Snapshot)
	for _, run := range o.live.Runs() {
		if s := run.Latest(); s != nil {
			out[run.Label()] = s.Metrics
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "%s: /metrics: %v\n", o.tool, err)
	}
}

// progressEntry is one run's row in the /progress view: the LiveSample
// minus its metrics payload.
type progressEntry struct {
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
	Done   bool   `json:"done"`
}

// serveProgress renders label -> how far the run has advanced.
func (o *Obs) serveProgress(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]progressEntry)
	for _, run := range o.live.Runs() {
		if s := run.Latest(); s != nil {
			out[run.Label()] = progressEntry{
				Cycles: s.Cycles,
				Events: s.Events,
				Done:   s.Done,
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "%s: /progress: %v\n", o.tool, err)
	}
}

// Start opens the requested outputs and starts profiling. Call after
// flag.Parse; pair with a deferred Stop. Two outputs that name one file
// are a usage error, reported before anything is opened, unless both are
// JSONL streams, which then share one writer. Until Stop runs, Fatalf and
// Check stop the session before exiting.
func (o *Obs) Start() error {
	files, err := o.outputs()
	if err != nil {
		Usagef(o.tool, "%v", err)
	}
	o.started = true
	setRunning(o, true)
	if o.cpuPath != "" {
		f, err := os.Create(o.cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		o.cpu = f
	}
	for _, f := range files {
		if len(f.sinks) == 0 {
			continue
		}
		w, err := openOut(f.path)
		if err != nil {
			return err
		}
		// One writer and its lock, so the streams sharing the file
		// interleave whole lines.
		sink := obs.NewJSONLSink(w)
		o.streams = append(o.streams, sink)
		for _, s := range f.sinks {
			*s = sink
		}
	}
	if o.metricsPath != "" {
		f, err := os.Create(o.metricsPath)
		if err != nil {
			return err
		}
		o.metrics = f
	}
	if o.pprofAddr != "" {
		o.live = obs.NewLive()
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.HandleFunc("/metrics", o.serveMetrics)
		mux.HandleFunc("/progress", o.serveProgress)
		ln, err := Listen(o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		o.ln = ln
		o.srv = &http.Server{Handler: mux}
		o.srvDone = make(chan struct{})
		go func() {
			defer close(o.srvDone)
			if err := o.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", o.tool, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "%s: serving /debug/pprof, /metrics, /progress on http://%s\n", o.tool, ln.Addr())
	}
	return nil
}

// Stop flushes and closes everything Start opened and writes the heap
// profile if one was requested. Errors are fatal: a truncated trace or
// profile silently accepted would defeat the point of asking for one.
// Stopping a session twice is a no-op.
func (o *Obs) Stop() {
	if !o.started {
		return
	}
	o.started = false
	setRunning(o, false)
	if o.srv != nil {
		// Let in-flight /metrics and /debug/pprof requests finish rather
		// than abandoning the listener; past the deadline, close hard.
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		if err := o.srv.Shutdown(ctx); err != nil {
			o.srv.Close()
		}
		cancel()
		<-o.srvDone
		o.srv = nil
		o.srvDone = nil
		o.ln = nil
	}
	if o.cpu != nil {
		pprof.StopCPUProfile()
		Check(o.tool, o.cpu.Close())
		o.cpu = nil
	}
	streams := o.streams
	o.traceOut, o.spanOut, o.checkOut, o.streams = nil, nil, nil, nil
	for _, s := range streams {
		Check(o.tool, s.Close())
	}
	if o.metrics != nil {
		Check(o.tool, o.metrics.Close())
		o.metrics = nil
	}
	if o.memPath != "" {
		f, err := os.Create(o.memPath)
		Check(o.tool, err)
		runtime.GC() // materialize the final live set
		Check(o.tool, pprof.WriteHeapProfile(f))
		Check(o.tool, f.Close())
	}
}

// Tracer returns a fresh tracer tagging its events with the given run
// label, or nil when tracing is off. Each concurrently running machine
// needs its own tracer; the shared sink serializes their batches.
func (o *Obs) Tracer(run string) *obs.Tracer {
	if o.traceOut == nil {
		return nil
	}
	return obs.NewTracer(o.traceOut.Sub(run), 0)
}

// Spans returns a fresh span recorder tagging its spans with the given
// run label, or nil when -span-out is unset. Each concurrently running
// machine needs its own recorder; the shared sink serializes their
// batches.
func (o *Obs) Spans(run string) *obs.SpanRecorder {
	if o.spanOut == nil {
		return nil
	}
	return obs.NewSpanRecorder(o.spanOut.Sub(run), 0)
}

// Checking reports whether -check or -check-out was given.
func (o *Obs) Checking() bool { return o.checkOn || o.checkPath != "" }

// CheckSink returns the violation sink for one run, tagged with the run
// label: JSONL records when -check-out is set (sharing the trace/span
// writer when it names their file), stderr lines under bare -check, nil
// when checking is off. A nil sink still lets the machine count and store
// violations; the caller reports them via Machine.CheckErr.
func (o *Obs) CheckSink(run string) check.Sink {
	if o.checkOut != nil {
		return check.NewJSONLSink(o.checkOut, run)
	}
	if o.checkOn {
		return check.NewWriterSink(os.Stderr, run)
	}
	return nil
}

// SampleEvery returns the -sample-every period in cycles (0 = disabled).
func (o *Obs) SampleEvery() sim.Time { return sim.Time(o.sampleEvery) }

// Faults parses the -faults spec, exiting with a usage error on a bad
// value. The zero FaultConfig (faults disabled) is returned when the flag
// is unset.
func (o *Obs) Faults() mesh.FaultConfig {
	if o.faultSpec == "" {
		return mesh.FaultConfig{}
	}
	fc, err := mesh.ParseFaults(o.faultSpec)
	if err != nil {
		Usagef(o.tool, "-faults: %v", err)
	}
	return fc
}

// Deadline returns the -deadline wall-clock bound (0 = disabled).
func (o *Obs) Deadline() time.Duration { return o.deadline }

// Session builds the experiment session a command runs under: every run
// observed through these flags (traces, spans, metrics, sampling, the
// checker, network faults, the deadline and the live server), at most
// parallel simulations at once. A bad -faults value exits with a usage
// error.
func (o *Obs) Session(parallel int) *exp.Session {
	ob := exp.Observer{
		Tracer:      o.Tracer,
		Spans:       o.Spans,
		Metrics:     o.WriteMetrics,
		SampleEvery: o.SampleEvery(),
		Faults:      o.Faults(),
		Deadline:    o.Deadline(),
		Live:        o.Live(),
	}
	if o.Checking() {
		ob.Check = o.CheckSink
	}
	return exp.NewSession(ob, parallel)
}

// outFile is one file the session writes, however many flags name it.
type outFile struct {
	id    fileID
	flag  string            // the first flag naming it
	path  string            // as that flag spells it
	sinks []**obs.JSONLSink // the JSONL streams writing it
}

// outputs builds the session's table of output files: one entry per file,
// however its path is spelled. JSONL streams that name one file share its
// entry; any other two outputs that name one file are an error. "-" names
// standard output, which only a JSONL stream may write: a profile is
// binary, and a metrics dump would interleave with the command's report.
func (o *Obs) outputs() ([]*outFile, error) {
	flags := []struct {
		name, path string
		sink       **obs.JSONLSink // nil for outputs that are not JSONL streams
	}{
		{"-trace-out", o.tracePath, &o.traceOut},
		{"-span-out", o.spanPath, &o.spanOut},
		{"-check-out", o.checkPath, &o.checkOut},
		{"-metrics", o.metricsPath, nil},
		{"-cpuprofile", o.cpuPath, nil},
		{"-memprofile", o.memPath, nil},
	}
	var files []*outFile
next:
	for _, fl := range flags {
		if fl.path == "" {
			continue
		}
		if fl.sink == nil && fl.path == "-" {
			return nil, fmt.Errorf("%s -: only -trace-out, -span-out and -check-out write to standard output", fl.name)
		}
		id := idOf(fl.path, fl.sink != nil)
		for _, f := range files {
			if !f.id.same(id) {
				continue
			}
			if fl.sink == nil || len(f.sinks) == 0 {
				return nil, fmt.Errorf("%s and %s name one file (%s); only -trace-out, -span-out and -check-out may share a file",
					f.flag, fl.name, fl.path)
			}
			f.sinks = append(f.sinks, fl.sink)
			continue next
		}
		f := &outFile{id: id, flag: fl.name, path: fl.path}
		if fl.sink != nil {
			f.sinks = []**obs.JSONLSink{fl.sink}
		}
		files = append(files, f)
	}
	return files, nil
}

// fileID identifies the file a path names, however it is spelled: standard
// output for a stream's "-"; otherwise the absolute path with the
// directory's symlinks resolved, and the file's identity when it exists,
// so links to one file match too.
type fileID struct {
	path string
	info os.FileInfo // nil when the file does not exist
}

func idOf(path string, stream bool) fileID {
	if stream && path == "-" {
		return fileID{path: path}
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	if dir, err := filepath.EvalSymlinks(filepath.Dir(abs)); err == nil {
		abs = filepath.Join(dir, filepath.Base(abs))
	}
	info, _ := os.Stat(abs)
	return fileID{path: abs, info: info}
}

func (a fileID) same(b fileID) bool {
	if a.info != nil && b.info != nil {
		return os.SameFile(a.info, b.info)
	}
	return a.path == b.path
}

// openOut opens path for writing; "-" selects stdout, wrapped so the sink
// flushes on Close without closing the process's stdout.
func openOut(path string) (io.Writer, error) {
	if path == "-" {
		return stdoutWriter{}, nil
	}
	return os.Create(path)
}

type stdoutWriter struct{}

func (stdoutWriter) Write(p []byte) (int, error) { return os.Stdout.Write(p) }

// WriteMetrics appends one run's metrics snapshot to the -metrics file
// (no-op when the flag is unset). Blocks are "# run <label>" headers
// followed by sorted "name value" lines; concurrent runs are serialized.
func (o *Obs) WriteMetrics(run string, snap obs.Snapshot) {
	if o.metrics == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	_, err := fmt.Fprintf(o.metrics, "# run %s\n", run)
	if err == nil {
		err = snap.WriteText(o.metrics)
	}
	Check(o.tool, err)
}
