// Package exp drives the paper's experiments end to end: it builds the
// workloads, configures machines, runs them, and renders each table and
// figure of the evaluation section (Figures 2–14, Tables 1–2). Both
// cmd/sweep and the benchmark harness are thin wrappers around this
// package.
package exp

import (
	"fmt"
	"time"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/machine"
	"dircoh/internal/runner"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// Procs is the paper's experimental machine size: 32 processors in 32
// clusters (§5: "All runs were done with 32 processors").
const Procs = 32

// Schemes is the §5 roster: Dir32, Dir3CV2, Dir3B, Dir3NB. The paper
// normalizes everything to the full bit vector, which therefore comes
// first.
var Schemes = []struct {
	Label   string
	Factory machine.SchemeFactory
}{
	{"Full Vector", machine.FullVec},
	{"Coarse Vector", machine.CoarseVec2},
	{"Broadcast", machine.Broadcast},
	{"Non Broadcast", machine.NoBroadcast},
}

// Run is one simulation outcome annotated with its configuration.
type Run struct {
	App    string
	Label  string
	Result *machine.Result
}

// Workload builds the named application at its default experiment size.
func Workload(app string, procs int) *tango.Workload {
	f, err := apps.Lookup(app)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return f(procs)
}

// RunApp simulates one application under one scheme with the prototype's
// full-size caches and a non-sparse directory (the Figures 7–10 setup).
func (s *Session) RunApp(app string, procs int, label string, f machine.SchemeFactory) Run {
	return s.runApp(app, Workload(app, procs), label, f)
}

// runApp is RunApp on a workload already built. A section builds its
// workload once and shares it, read-only, across its runs.
func (s *Session) runApp(app string, w *tango.Workload, label string, f machine.SchemeFactory) Run {
	cfg := machine.DefaultConfig(f)
	cfg.Procs = w.Procs()
	return s.runWorkload(app, w, cfg, label)
}

// SparseWorkload builds the problem size used by the sparse-directory
// studies (Figures 11-14): LU is enlarged so the data set pressures the
// directory the way the paper's full-size problems pressured theirs.
func SparseWorkload(app string, procs int) *tango.Workload {
	if app == "LU" {
		return apps.LU(apps.LUConfig{Procs: procs, N: 128})
	}
	return Workload(app, procs)
}

// RunError is the typed panic value the experiment drivers raise when a
// run fails: it names the run and the failed stage and wraps the
// underlying cause, so supervisors that recover driver panics (the
// campaign service) can classify the failure — errors.As through Unwrap
// reaches a *machine.StuckError for wedged or deadline-aborted runs.
type RunError struct {
	Run   string // "app/label" display name
	Stage string // "build", "run", "coherence", "check", "trace", "spans"
	Err   error
}

func (e *RunError) Error() string {
	if e.Stage == "run" || e.Stage == "build" {
		return fmt.Sprintf("exp: %s: %v", e.Run, e.Err)
	}
	return fmt.Sprintf("exp: %s %s: %v", e.Run, e.Stage, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

func (s *Session) runWorkload(app string, w *tango.Workload, cfg machine.Config, label string) Run {
	r, err := s.RunConfigured(app+"/"+label, w, cfg)
	if err != nil {
		panic(err)
	}
	return Run{App: app, Label: label, Result: r}
}

// RunConfigured executes one machine run of w on cfg under the session's
// observer, labeled name in every observability stream, and returns a
// typed *RunError on any failure instead of panicking — the
// error-propagating core runWorkload, ExecuteSpec and cmd/dashsim share.
func (s *Session) RunConfigured(name string, w *tango.Workload, cfg machine.Config) (*machine.Result, error) {
	start := time.Now()
	ob := s.Observer()
	fail := func(stage string, err error) error {
		return &RunError{Run: name, Stage: stage, Err: err}
	}
	if ob.Tracer != nil {
		cfg.Trace = ob.Tracer(name)
	}
	if ob.Spans != nil {
		cfg.Spans = ob.Spans(name)
	}
	if ob.Check != nil {
		cfg.Check = true
		cfg.CheckSink = ob.Check(name)
	}
	cfg.SampleEvery = ob.SampleEvery
	if ob.Live != nil {
		cfg.Live = ob.Live.Run(name)
	}
	if ob.Faults.Enabled() {
		cfg.Mesh.Faults = ob.Faults
	}
	cfg.Deadline = ob.Deadline
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fail("build", err)
	}
	// A failed run still hands its trace, spans and metrics to the
	// observer: they show how the run got where it failed.
	failRun := func(stage string, err error) error {
		m.FlushTrace()
		m.FlushSpans()
		if ob.Metrics != nil {
			ob.Metrics(name, m.MetricsSnapshot())
		}
		return fail(stage, err)
	}
	r, err := m.Run(w)
	if err != nil {
		return nil, failRun("run", err)
	}
	if err := m.CheckCoherence(); err != nil {
		return nil, failRun("coherence", err)
	}
	if err := m.CheckErr(); err != nil {
		return nil, failRun("check", err)
	}
	if err := m.FlushTrace(); err != nil {
		return nil, fail("trace", err)
	}
	if err := m.FlushSpans(); err != nil {
		return nil, fail("spans", err)
	}
	if ob.Metrics != nil {
		ob.Metrics(name, m.MetricsSnapshot())
	}
	s.meter.Record(time.Since(start), uint64(r.ExecTime))
	return r, nil
}

// Table2 reproduces Table 2: general application characteristics at the
// experiment problem sizes (counts are in thousands, data set in KB —
// the paper's full-size runs report millions and MB).
func (s *Session) Table2(procs int) *stats.Table {
	tb := stats.NewTable("application", "shared refs(k)", "reads(k)", "writes(k)", "sync ops", "shared KB")
	rows := runner.Map(s.runPool(), apps.Names(), func(name string) []string {
		c := Workload(name, procs).Characterize()
		return []string{
			name,
			fmt.Sprintf("%.1f", float64(c.SharedRefs)/1000),
			fmt.Sprintf("%.1f", float64(c.SharedReads)/1000),
			fmt.Sprintf("%.1f", float64(c.SharedWrites)/1000),
			fmt.Sprintf("%d", c.SyncOps),
			fmt.Sprintf("%.1f", float64(c.SharedBytes)/1024),
		}
	})
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb
}

// Figs3to6 reproduces the invalidation distributions of Figures 3–6:
// LocusRoute under Dir32, Dir3NB, Dir3B and Dir3CV2.
func (s *Session) Figs3to6(procs int) []Run {
	order := []struct {
		fig   string
		label string
		f     machine.SchemeFactory
	}{
		{"Figure 3", "Dir32 (full vector)", machine.FullVec},
		{"Figure 4", "Dir3NB", machine.NoBroadcast},
		{"Figure 5", "Dir3B", machine.Broadcast},
		{"Figure 6", "Dir3CV2", machine.CoarseVec2},
	}
	w := Workload("LocusRoute", procs)
	return s.collectRuns(len(order), func(i int) Run {
		o := order[i]
		return s.runApp("LocusRoute", w, o.fig+": "+o.label, o.f)
	})
}

// SchemeComparison reproduces one of Figures 7–10: one application under
// all four schemes, reporting execution time and message counts
// normalized to the full bit vector.
func (s *Session) SchemeComparison(app string, procs int) ([]Run, *stats.Table) {
	w := Workload(app, procs)
	runs := s.collectRuns(len(Schemes), func(i int) Run {
		return s.runApp(app, w, Schemes[i].Label, Schemes[i].Factory)
	})
	base := runs[0].Result
	tb := stats.NewTable("scheme", "exec", "exec(norm)", "msgs", "msgs(norm)", "requests", "replies", "inval+ack")
	for _, r := range runs {
		res := r.Result
		tb.AddRow(
			r.Label,
			fmt.Sprintf("%d", res.ExecTime),
			fmt.Sprintf("%.3f", float64(res.ExecTime)/float64(base.ExecTime)),
			fmt.Sprintf("%d", res.Msgs.Total()),
			fmt.Sprintf("%.3f", float64(res.Msgs.Total())/float64(base.Msgs.Total())),
			fmt.Sprintf("%d", res.Msgs[stats.Request]),
			fmt.Sprintf("%d", res.Msgs[stats.Reply]),
			fmt.Sprintf("%d", res.Msgs.InvalAck()),
		)
	}
	return runs, tb
}

// ScaledCache returns the reduced cache configuration the sparse studies
// use for the given application (§6.3: caches are scaled per application
// so the data-set-to-cache ratio matches a full-size problem on real DASH
// hardware; the paper gives DWF 2 KB per processor).
func ScaledCache(app string) cache.Config {
	if app == "DWF" {
		return cache.Config{L1Size: 1 << 10, L1Assoc: 1, L2Size: 2 << 10, L2Assoc: 1, Block: 16}
	}
	return cache.Config{L1Size: 512, L1Assoc: 1, L2Size: 1 << 10, L2Assoc: 1, Block: 16}
}

// sparseEntriesPerCluster sizes the per-cluster sparse directory so the
// machine-wide entry count is sizeFactor times the machine-wide cache
// block count (the paper's "size factor").
func sparseEntriesPerCluster(cfg machine.Config, sizeFactor int) int {
	l2Blocks := cfg.Cache.L2Size / cfg.Block
	total := sizeFactor * l2Blocks * cfg.Procs
	return total / cfg.Clusters()
}

// SparseConfigFor builds the machine configuration for one sparse run of
// the named application.
func SparseConfigFor(app string, f machine.SchemeFactory, procs, sizeFactor, assoc int, policy sparse.ReplacePolicy) machine.Config {
	cfg := machine.DefaultConfig(f)
	cfg.Procs = procs
	cfg.Cache = ScaledCache(app)
	if sizeFactor > 0 {
		cfg.Sparse = machine.SparseConfig{
			Entries: sparseEntriesPerCluster(cfg, sizeFactor),
			Assoc:   assoc,
			Policy:  policy,
		}
	}
	return cfg
}

// SparsePerformance reproduces Figure 11 (LU) / Figure 12 (DWF): execution
// time versus directory size factor for the full-vector, coarse-vector and
// broadcast schemes with scaled caches, associativity 4 and random
// replacement, normalized to the non-sparse full-vector run.
func (s *Session) SparsePerformance(app string, procs int) ([]Run, *stats.Table) {
	schemes := Schemes[:3] // full, coarse, broadcast — as in the figures
	type spec struct {
		scheme  string
		factory machine.SchemeFactory
		sf      int
	}
	specs := []spec{{"Full Vector", machine.FullVec, 0}} // job 0: the non-sparse baseline
	for _, s := range schemes {
		for _, sf := range []int{1, 2, 4} {
			specs = append(specs, spec{s.Label, s.Factory, sf})
		}
	}
	w := SparseWorkload(app, procs)
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		if sp.sf == 0 {
			return s.runWorkload(app, w, SparseConfigFor(app, sp.factory, procs, 0, 0, sparse.Random), "non-sparse full vector")
		}
		return s.runWorkload(app, w, SparseConfigFor(app, sp.factory, procs, sp.sf, 4, sparse.Random),
			fmt.Sprintf("%s sf=%d", sp.scheme, sp.sf))
	})
	base := runs[0]
	tb := stats.NewTable("scheme", "size factor", "exec", "exec(norm)", "msgs(norm)", "replacements")
	tb.AddRow("Full Vector", "non-sparse", fmt.Sprintf("%d", base.Result.ExecTime), "1.000", "1.000", "0")
	for i, r := range runs[1:] {
		tb.AddRow(
			specs[i+1].scheme,
			fmt.Sprintf("%d", specs[i+1].sf),
			fmt.Sprintf("%d", r.Result.ExecTime),
			fmt.Sprintf("%.3f", float64(r.Result.ExecTime)/float64(base.Result.ExecTime)),
			fmt.Sprintf("%.3f", float64(r.Result.Msgs.Total())/float64(base.Result.Msgs.Total())),
			fmt.Sprintf("%d", r.Result.Replacements),
		)
	}
	return runs, tb
}

// AssocSweep reproduces Figure 13: message traffic versus sparse-directory
// associativity (1, 2, 4) for size factors 1, 2, 4, LU, full bit vector,
// normalized to the non-sparse run with the same scaled caches.
func (s *Session) AssocSweep(app string, procs int) ([]Run, *stats.Table) {
	type spec struct{ sf, assoc int }
	specs := []spec{{0, 0}} // job 0: the non-sparse baseline
	for _, sf := range []int{1, 2, 4} {
		for _, assoc := range []int{1, 2, 4} {
			specs = append(specs, spec{sf, assoc})
		}
	}
	w := SparseWorkload(app, procs)
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		if sp.sf == 0 {
			return s.runWorkload(app, w, SparseConfigFor(app, machine.FullVec, procs, 0, 0, sparse.Random), "non-sparse")
		}
		return s.runWorkload(app, w, SparseConfigFor(app, machine.FullVec, procs, sp.sf, sp.assoc, sparse.Random),
			fmt.Sprintf("sf=%d assoc=%d", sp.sf, sp.assoc))
	})
	base := runs[0]
	tb := stats.NewTable("size factor", "assoc", "msgs", "msgs(norm)", "replacements")
	for i, r := range runs[1:] {
		tb.AddRow(
			fmt.Sprintf("%d", specs[i+1].sf),
			fmt.Sprintf("%d", specs[i+1].assoc),
			fmt.Sprintf("%d", r.Result.Msgs.Total()),
			fmt.Sprintf("%.3f", float64(r.Result.Msgs.Total())/float64(base.Result.Msgs.Total())),
			fmt.Sprintf("%d", r.Result.Replacements),
		)
	}
	return runs, tb
}

// PolicySweep reproduces Figure 14: message traffic versus replacement
// policy (LRU, Random, LRA) for size factors 1, 2, 4, LU, associativity 4,
// full bit vector.
func (s *Session) PolicySweep(app string, procs int) ([]Run, *stats.Table) {
	policies := []sparse.ReplacePolicy{sparse.LRU, sparse.Random, sparse.LRA}
	type spec struct {
		sf  int
		pol sparse.ReplacePolicy
	}
	specs := []spec{{0, sparse.Random}} // job 0: the non-sparse baseline
	for _, sf := range []int{1, 2, 4} {
		for _, pol := range policies {
			specs = append(specs, spec{sf, pol})
		}
	}
	w := SparseWorkload(app, procs)
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		if sp.sf == 0 {
			return s.runWorkload(app, w, SparseConfigFor(app, machine.FullVec, procs, 0, 0, sparse.Random), "non-sparse")
		}
		return s.runWorkload(app, w, SparseConfigFor(app, machine.FullVec, procs, sp.sf, 4, sp.pol),
			fmt.Sprintf("sf=%d %v", sp.sf, sp.pol))
	})
	base := runs[0]
	tb := stats.NewTable("size factor", "policy", "msgs", "msgs(norm)", "replacements")
	for i, r := range runs[1:] {
		tb.AddRow(
			fmt.Sprintf("%d", specs[i+1].sf),
			specs[i+1].pol.String(),
			fmt.Sprintf("%d", r.Result.Msgs.Total()),
			fmt.Sprintf("%.3f", float64(r.Result.Msgs.Total())/float64(base.Result.Msgs.Total())),
			fmt.Sprintf("%d", r.Result.Replacements),
		)
	}
	return runs, tb
}

// WorkloadSeeded builds the named application with a specific generator
// seed (only MP3D and LocusRoute are seed-sensitive; the others are fully
// deterministic).
func WorkloadSeeded(app string, procs int, seed int64) *tango.Workload {
	switch app {
	case "MP3D":
		cfg := apps.DefaultMP3D(procs)
		cfg.Seed = seed
		return apps.MP3D(cfg)
	case "LocusRoute":
		cfg := apps.DefaultLocusRoute(procs)
		cfg.Seed = seed
		return apps.LocusRoute(cfg)
	default:
		return Workload(app, procs)
	}
}

// SchemeComparisonSeeded is SchemeComparison with a chosen workload seed,
// used to check that the paper's conclusions are not artifacts of one
// random input.
func (s *Session) SchemeComparisonSeeded(app string, procs int, seed int64) []Run {
	w := WorkloadSeeded(app, procs, seed)
	return s.collectRuns(len(Schemes), func(i int) Run {
		return s.runApp(app, w, Schemes[i].Label, Schemes[i].Factory)
	})
}
