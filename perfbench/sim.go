package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// Geometry of the scale-1024 workload: few rounds, so building the
// 1024-cluster machine outweighs simulating it.
const (
	scaleClusters = 1024
	scaleRounds   = 2
)

// sampleEvery is the queue-sampling period of the traced pass, in cycles.
const sampleEvery = 64

// minPasses is how many passes an untraced run makes at least, so the
// modelled counts can be compared across repetitions.
const minPasses = 2

// simRun is one simulation of a workload pass: its input, the machine
// configuration it runs under, and the directory entries that
// configuration provisions.
type simRun struct {
	name    string
	w       *tango.Workload
	cfg     machine.Config
	entries int64
}

// simInputs generates one pass of a simulation workload. Every machine
// runs the configuration a user gets by default: no shard width or other
// engine override is set, so a change of default engine shows here.
func simInputs(workload string, seed int64) []simRun {
	var runs []simRun
	switch workload {
	case "paper-32":
		// Figures 7-10: full-size caches, full-map directory, whose
		// provisioned entries are the shared blocks.
		for _, app := range []string{"LU", "DWF", "MP3D", "LocusRoute"} {
			w := exp.WorkloadSeeded(app, exp.Procs, seed)
			for _, s := range exp.Schemes {
				cfg := machine.DefaultConfig(s.Factory)
				cfg.Seed = seed
				runs = append(runs, simRun{app + "/" + s.Label, w, cfg, sharedBlocks(w, cfg.Block)})
			}
		}
	case "sparse-lu":
		// Figures 11, 13 and 14: scaled caches, sparse directory at size
		// factor 1 and associativity 4. The LU input is paper-32's (N=96),
		// not exp.SparseWorkload's (N=128): its 73 KB data set is still
		// 2.25 times the machine's 32 KB of scaled cache, and a pass takes
		// ~5 s instead of ~12 s, so a run holds enough passes for a median.
		w := exp.Workload("LU", exp.Procs)
		for _, s := range []struct {
			label  string
			f      machine.SchemeFactory
			policy sparse.ReplacePolicy
		}{{"Dir32 random", machine.FullVec, sparse.Random}, {"Dir3CV2 LRU", machine.CoarseVec2, sparse.LRU}} {
			cfg := exp.SparseConfigFor("LU", s.f, exp.Procs, 1, 4, s.policy)
			cfg.Seed = seed
			runs = append(runs, simRun{"LU/" + s.label, w, cfg, int64(cfg.Sparse.Entries * cfg.Clusters())})
		}
	case "scale-1024":
		w := exp.ScaleProbe(scaleClusters, scaleRounds)
		for _, s := range exp.ScaleSchemes {
			cfg := machine.DefaultConfig(s.Factory)
			cfg.Procs = scaleClusters
			cfg.Barrier = machine.TreeBarrier
			cfg.Seed = seed
			runs = append(runs, simRun{fmt.Sprintf("scale-probe/%s n=%d", s.Label, scaleClusters), w, cfg, sharedBlocks(w, cfg.Block)})
		}
	default:
		panic("perfbench: no simulation workload " + workload)
	}
	return runs
}

func sharedBlocks(w *tango.Workload, block int) int64 {
	return (w.SharedBytes + int64(block) - 1) / int64(block)
}

func refCount(w *tango.Workload) int64 {
	var n int64
	for _, s := range w.Streams {
		n += int64(len(s))
	}
	return n
}

// model is the modelled, deterministic outcome of one run: what must
// repeat exactly across repetitions and between traced and untraced runs.
type model struct {
	exec        uint64
	msgs        stats.MsgCounts
	invalEvents uint64
	invals      uint64
	repl        uint64
	entryBits   int
}

func modelOf(r *machine.Result) model {
	return model{uint64(r.ExecTime), r.Msgs, r.InvalHist.Events(), r.InvalHist.Total(), r.Replacements, r.DirEntryBits}
}

// runOutcome is one measured run. Times cover the calls into the machine
// layer only; allocation counts come from runtime.MemStats around them.
type runOutcome struct {
	ok                   bool
	newS, runS, checkS   float64
	allocBytes, newAlloc uint64
	runMallocs           uint64
	shards               int
	res                  *machine.Result
	snap                 obs.Snapshot
	events, spans        uint64
}

// countingSpans is the traced pass's span sink: it keeps no spans, only
// their number.
type countingSpans struct{ n uint64 }

func (c *countingSpans) WriteSpans(b []obs.Span) error { c.n += uint64(len(b)); return nil }
func (c *countingSpans) Close() error                  { return nil }

// simPass is one pass over a workload's runs.
type simPass struct {
	runs    []runOutcome
	latency float64 // host seconds of construction + run + coherence check
	alloc   uint64
	wall    time.Duration
}

// runOne builds, runs and checks one machine. A traced run records
// transaction spans, queue samples and a live snapshot, and reads the
// metrics registry back.
func runOne(rep *report, trace string, parent int, r simRun, traced bool) runOutcome {
	cfg := r.cfg
	var sink countingSpans
	if traced {
		cfg.Spans = obs.NewSpanRecorder(&sink, 0)
		cfg.SampleEvery = sampleEvery
		cfg.Live = obs.NewLive().Run(r.name)
	}
	var out runOutcome
	rep.attempted++
	runtime.GC()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := rep.spans.start(trace, "machine.New", parent)
	m, err := machine.New(cfg)
	out.newS = rep.spans.end(id).Seconds()
	if err != nil {
		rep.failf("%s: machine.New: %v", r.name, err)
		return out
	}
	rep.engines[engineName(m)]++
	out.shards = m.Shards()
	runtime.ReadMemStats(&m1)
	id = rep.spans.start(trace, "Machine.Run", parent)
	res, err := m.Run(r.w)
	out.runS = rep.spans.end(id).Seconds()
	runtime.ReadMemStats(&m2)
	if err != nil {
		rep.failf("%s: Machine.Run: %v", r.name, err)
		return out
	}
	id = rep.spans.start(trace, "Machine.CheckCoherence", parent)
	err = m.CheckCoherence()
	out.checkS = rep.spans.end(id).Seconds()
	if err != nil {
		rep.failf("%s: Machine.CheckCoherence: %v", r.name, err)
		return out
	}
	runtime.ReadMemStats(&m3)
	out.allocBytes = m3.TotalAlloc - m0.TotalAlloc
	out.newAlloc = m1.TotalAlloc - m0.TotalAlloc
	out.runMallocs = m2.Mallocs - m1.Mallocs
	out.res = res
	if traced {
		if err := m.FlushSpans(); err != nil {
			rep.failf("%s: flushing spans: %v", r.name, err)
			return out
		}
		id = rep.spans.start(trace, "Machine.MetricsSnapshot", parent)
		out.snap = m.MetricsSnapshot()
		rep.spans.end(id)
		out.spans = sink.n
		if s := cfg.Live.Latest(); s != nil && s.Done {
			out.events = s.Events
		} else {
			rep.failf("%s: no final live sample", r.name)
			return out
		}
	}
	out.ok = true
	return out
}

// engineName names the event engine and width a machine actually runs
// with, and why a requested sharded run fell back, if it did.
func engineName(m *machine.Machine) string {
	engine := "serial-heap"
	if m.Shards() > 0 {
		engine = "wheel"
	}
	return fmt.Sprintf("engine=%s shards=%d fallback=%q", engine, m.Shards(), m.FallbackReason())
}

func runPass(rep *report, runs []simRun, n int, traced bool) simPass {
	trace := fmt.Sprintf("pass-%d", n)
	if traced {
		trace += "-traced"
	}
	start := time.Now()
	root := rep.spans.start(trace, "pass", 0)
	p := simPass{runs: make([]runOutcome, len(runs))}
	for i, r := range runs {
		id := rep.spans.start(trace, "run "+r.name, root)
		p.runs[i] = runOne(rep, trace, id, r, traced)
		rep.spans.end(id)
		p.latency += p.runs[i].newS + p.runs[i].runS + p.runs[i].checkS
		p.alloc += p.runs[i].allocBytes
	}
	rep.spans.end(root)
	p.wall = time.Since(start)
	return p
}

// checkRepeat fails every run whose modelled outcome differs from the
// reference pass's.
func checkRepeat(rep *report, runs []simRun, ref, p simPass, what string) {
	for i := range runs {
		a, b := ref.runs[i], p.runs[i]
		if a.ok && b.ok && modelOf(a.res) != modelOf(b.res) {
			rep.failf("%s: modelled counts differ %s: %+v vs %+v", runs[i].name, what, modelOf(a.res), modelOf(b.res))
		}
	}
}

// setupSim generates the workload's inputs several times and returns the
// last set with the median generation time.
func setupSim(rep *report, seed int64) ([]simRun, float64) {
	var runs []simRun
	var times []float64
	start := time.Now()
	for len(times) < 5 || (time.Since(start) < time.Second && len(times) < 200) {
		runs = nil // drop the previous set so the collection frees it
		runtime.GC()
		id := rep.spans.start("setup", "apps.build", 0)
		runs = simInputs(rep.workload, seed)
		times = append(times, rep.spans.end(id).Seconds())
	}
	return runs, median(times)
}

// runSim runs one simulation workload: passes back to back for the
// window, or, traced, alternating untraced and traced passes, with set-up
// and passes under a CPU profile.
func runSim(o options, rep *report) {
	var gc0, gc1 runtime.MemStats
	var stopProfile func() (layerCPU, error)
	if o.trace {
		var err error
		if stopProfile, err = startProfile(filepath.Join(o.outDir, "cpu-"+rep.workload+".pprof")); err != nil {
			rep.failf("starting CPU profile: %v", err)
		}
		runtime.ReadMemStats(&gc0)
	}
	runs, setup := setupSim(rep, o.seed)
	rep.set("setup_s", setup)
	var refs int64
	for _, r := range runs {
		refs += refCount(r.w)
	}

	var plain, traced []simPass
	start := time.Now()
	var walls []float64
	for {
		p := runPass(rep, runs, len(plain), false)
		plain = append(plain, p)
		if o.trace {
			t := runPass(rep, runs, len(traced), true)
			traced = append(traced, t)
			checkRepeat(rep, runs, p, t, "between untraced and traced runs")
			walls = append(walls, (p.wall + t.wall).Seconds())
		} else {
			walls = append(walls, p.wall.Seconds())
		}
		checkRepeat(rep, runs, plain[0], p, "across repetitions")
		done := o.trace || len(plain) >= minPasses
		if done && time.Since(start).Seconds()+median(walls) > o.window.Seconds() {
			break
		}
	}

	ref := plain[0]
	var cycles uint64
	var msgs, invals uint64
	var kbits float64
	for i, r := range ref.runs {
		if !r.ok {
			continue
		}
		cycles += uint64(r.res.ExecTime)
		msgs += r.res.Msgs.Total()
		invals += r.res.Msgs[stats.Invalidation]
		kbits += float64(r.res.DirEntryBits) * float64(runs[i].entries) / 1000
	}
	rep.set("sim_cycles", float64(cycles))
	rep.set("net_msgs", float64(msgs))
	rep.set("inval_msgs", float64(invals))
	rep.set("dir_kbits", kbits)

	var rate, alloc, lat []float64
	for _, p := range plain {
		rate = append(rate, ratio(float64(refs), p.latency))
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		lat = append(lat, p.latency*1000)
	}
	rep.set("refs_per_s", median(rate))
	rep.set("alloc_mb", median(alloc))
	// Passes per second at the median pass: one slow pass moves a mean
	// over a handful of passes, not the median.
	rep.set("campaigns_per_s", ratio(1000, median(lat)))
	rep.set("campaign_p50_ms", quantile(lat, 0.50))
	rep.set("campaign_p95_ms", quantile(lat, 0.95))
	rss, err := peakRSS("self")
	if err != nil {
		rep.failf("reading peak RSS: %v", err)
	}
	rep.set("peak_rss_mb", rss)

	if !o.trace {
		return
	}
	runtime.ReadMemStats(&gc1)
	if stopProfile != nil {
		cpu, err := stopProfile()
		if err != nil {
			rep.failf("attributing CPU profile: %v", err)
		}
		cpu.report(rep)
	}
	rep.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	rep.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	simLayers(rep, runs, setup, plain, traced)
	idleLayers(rep, "campaign.", "simd.")
}

// simLayers derives the per-layer metrics of a traced simulation run:
// host timings from the untraced passes (medians), event, span and queue
// statistics from the traced ones, modelled counters from either (they
// are checked equal).
func simLayers(rep *report, runs []simRun, setup float64, plain, traced []simPass) {
	rep.set("apps.build_s", setup)
	seen := map[*tango.Workload]bool{}
	var genRefs int64
	for _, r := range runs {
		if !seen[r.w] {
			seen[r.w] = true
			genRefs += refCount(r.w)
		}
	}
	rep.set("apps.refs", float64(genRefs))

	var newS, newMB, runS, mallocs, tracedRun []float64
	for _, p := range plain {
		var n, nb, rs, ma float64
		for _, r := range p.runs {
			n += r.newS
			nb += float64(r.newAlloc) / (1 << 20)
			rs += r.runS
			ma += float64(r.runMallocs)
		}
		newS, newMB, runS, mallocs = append(newS, n), append(newMB, nb), append(runS, rs), append(mallocs, ma)
	}
	for _, p := range traced {
		var rs float64
		for _, r := range p.runs {
			rs += r.runS
		}
		tracedRun = append(tracedRun, rs)
	}
	rep.set("machine.new_s", median(newS))
	rep.set("machine.new_alloc_mb", median(newMB))
	rep.set("machine.run_s", median(runS))
	rep.set("obs.overhead_ratio", ratio(median(tracedRun), median(runS)))

	t := traced[0]
	var events, spans uint64
	var dirUtil, busUtil float64
	var shards int
	var invalEvents, invals, extraneous uint64
	var bits float64
	var lookups, hits, allocs, evictions, replInvals uint64
	var peak int
	var accesses, l1, l2, misses, cevict, dirty uint64
	var netMsgs, hops, stalls uint64
	var merged, gateWaits, lockRetries uint64
	var racPeak int
	hists := map[string]*obs.HistSnapshot{}
	for _, r := range t.runs {
		if !r.ok {
			continue
		}
		res := r.res
		events += r.events
		spans += r.spans
		dirUtil += res.DirUtil / float64(len(t.runs))
		busUtil += res.BusUtil / float64(len(t.runs))
		invalEvents += res.InvalHist.Events()
		invals += res.InvalHist.Total()
		extraneous += r.snap.Counter("dir.inval.extraneous")
		bits += float64(res.DirEntryBits) / float64(len(t.runs))
		lookups += res.Dir.Lookups
		hits += res.Dir.Hits
		allocs += res.Dir.Allocations
		evictions += res.Replacements
		replInvals += res.ReplHist.Total()
		peak = max(peak, res.DirPeak)
		accesses += res.Cache.Reads + res.Cache.Writes
		l1 += res.Cache.L1Hits
		l2 += res.Cache.L2Hits
		misses += res.Cache.Misses
		cevict += res.Cache.Evictions
		dirty += res.Cache.DirtyEv
		netMsgs += res.Net.Messages
		hops += res.Net.Hops
		stalls += res.Net.Stalls
		merged += res.MergedReads
		gateWaits += r.snap.Counter("gate.waits")
		lockRetries += res.LockRetries
		racPeak = max(racPeak, res.RACPeak)
		for name, h := range r.snap.Hists {
			mergeHist(hists, name, h)
		}
	}
	for _, r := range plain[0].runs {
		shards = max(shards, r.shards)
	}
	rep.set("machine.events", float64(events))
	rep.set("machine.ns_per_event", ratio(median(runS)*1e9, float64(events)))
	rep.set("machine.run_allocs_per_event", ratio(median(mallocs), float64(events)))
	rep.set("machine.dir_util", dirUtil)
	rep.set("machine.bus_util", busUtil)
	rep.set("machine.shards", float64(shards))
	rep.set("core.inval_events", float64(invalEvents))
	rep.set("core.invals_per_event", ratio(float64(invals), float64(invalEvents)))
	rep.set("core.extraneous_invals", float64(extraneous))
	rep.set("core.entry_bits", bits)
	rep.set("sparse.lookups", float64(lookups))
	rep.set("sparse.hit_ratio", ratio(float64(hits), float64(lookups)))
	rep.set("sparse.allocs", float64(allocs))
	rep.set("sparse.evictions", float64(evictions))
	rep.set("sparse.repl_invals", float64(replInvals))
	rep.set("sparse.peak_entries", float64(peak))
	rep.set("cache.accesses", float64(accesses))
	rep.set("cache.l1_hit_ratio", ratio(float64(l1), float64(accesses)))
	rep.set("cache.l2_hit_ratio", ratio(float64(l2), float64(accesses-l1)))
	rep.set("cache.misses", float64(misses))
	rep.set("cache.evictions", float64(cevict))
	rep.set("cache.dirty_evictions", float64(dirty))
	rep.set("mesh.msgs", float64(netMsgs))
	rep.set("mesh.avg_hops", ratio(float64(hops), float64(netMsgs)))
	rep.set("mesh.stalls", float64(stalls))
	rep.set("mesh.port_backlog_p99", histQuantile(hists, "mesh.port.backlog", 0.99))
	rep.set("protocol.merged_reads", float64(merged))
	rep.set("protocol.gate_waits", float64(gateWaits))
	rep.set("protocol.lock_retries", float64(lockRetries))
	rep.set("protocol.rac_peak", float64(racPeak))
	rep.set("protocol.dir_queue_p99", histQuantile(hists, "dir.queue.depth", 0.99))
	for _, class := range txClasses {
		rep.set("tx."+class+".p50_cycles", histQuantile(hists, "tx.lat."+class, 0.50))
		rep.set("tx."+class+".p99_cycles", histQuantile(hists, "tx.lat."+class, 0.99))
	}
	rep.set("obs.spans", float64(spans))
}

// mergeHist folds one run's histogram into the pass-wide one of the same
// name (the machine uses one bucket layout per name).
func mergeHist(into map[string]*obs.HistSnapshot, name string, h obs.HistSnapshot) {
	dst, ok := into[name]
	if !ok {
		c := h
		c.Counts = append([]uint64(nil), h.Counts...)
		into[name] = &c
		return
	}
	for i, n := range h.Counts {
		dst.Counts[i] += n
	}
	dst.N += h.N
	dst.Sum += h.Sum
	dst.Max = max(dst.Max, h.Max)
}

func histQuantile(hists map[string]*obs.HistSnapshot, name string, q float64) float64 {
	if h, ok := hists[name]; ok {
		return float64(h.Quantile(q))
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// idleLayers reports 0 for every per-layer metric not yet measured whose
// name starts with one of prefixes (any, when none are given): layers the
// workload never reaches, or cannot see from outside.
func idleLayers(rep *report, prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; ok {
			continue
		}
		match := len(prefixes) == 0
		for _, p := range prefixes {
			match = match || strings.HasPrefix(m.name, p)
		}
		if match {
			rep.set(m.name, 0)
		}
	}
}
