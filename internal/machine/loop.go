package machine

// The machine core: one keyed timing wheel (sim.Wheel) stepped on the
// calling goroutine. Every event carries a key naming the cluster that
// scheduled it and that cluster's event sequence (clusterNode.nextKey),
// and the wheel fires equal-time events in ascending key order, so the
// (time, origin cluster, sequence) event order depends only on
// per-cluster scheduling order. Events are typed values the wheel hands
// back to Machine.fire (see event.go). Parallelism lives across runs (the
// runner pool), never inside one.
//
// The loop fires events in windows of the mesh's minimum cross-cluster
// latency. Window boundaries are where the liveness watchdog, the
// wall-clock deadline, live publishing and the sampling stop rule decide,
// so their verdicts — and every StuckError dump — fall at a fixed cadence.

import (
	"fmt"
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/sim"
	"dircoh/internal/stats"
)

// never is the "no limit" sentinel for watchdog arithmetic.
const never = ^sim.Time(0)

// wallEvery is how many windows pass between wall-clock reads for the
// deadline and the live-publish throttle, keeping the clock read off the
// per-window path.
const wallEvery = 64

// livePublishEvery throttles in-run snapshot publishing: a sample per
// ~100ms is ample for a human or a poller watching /progress, and the
// wall-clock read happens only when a live slot is attached.
const livePublishEvery = 100 * time.Millisecond

// windowStride returns the window length: the minimum cross-cluster mesh
// latency. Dimension-ordered routing makes the latency between two
// adjacent nodes the minimum over distinct pairs, and nodes 0 and 1 are
// adjacent in every mesh of two or more nodes.
func (m *Machine) windowStride() sim.Time {
	stride := sim.Time(1) // one cluster: no cross-cluster traffic exists
	if m.net.Nodes() > 1 {
		stride = m.net.Latency(0, 1)
	}
	if stride == 0 {
		panic("machine: the core needs a positive minimum mesh latency")
	}
	return stride
}

// run fires events window by window and reports the abort error, if any.
// The run ends when no event is pending, or when only the sampling chain
// is: it reads state without changing it, so no processor can make
// progress any more.
func (m *Machine) run() error {
	stride := m.windowStride()
	budget := m.cfg.StuckBudget
	sampler := 0
	if m.cfg.SampleEvery > 0 {
		sampler = 1
	}
	var start, lastPub time.Time
	if m.cfg.Deadline > 0 {
		start = time.Now()
	}
	if m.cfg.Live != nil {
		lastPub = time.Now()
	}
	wallHit := false
	limit, stuck := m.watchdogScan()
	for iter := 1; m.w.Pending() > sampler; iter++ {
		window, _ := m.w.NextTime()
		if wallHit {
			return m.abort(fmt.Sprintf("wall-clock deadline %s exceeded at t=%d", m.cfg.Deadline, window))
		}
		if budget > 0 && window > limit {
			// Deterministic liveness watchdog: the next window starting
			// more than a budget past a processor's last progress.
			return m.abort(fmt.Sprintf("liveness watchdog: proc %d made no progress for over %d cycles (budget exceeded at t=%d)",
				stuck, budget, window))
		}
		m.w.RunUntil(window+stride-1, m.fire)
		if budget > 0 {
			limit, stuck = m.watchdogScan()
		}
		if iter%wallEvery == 0 {
			if m.cfg.Deadline > 0 && time.Since(start) > m.cfg.Deadline {
				wallHit = true
			}
			if m.cfg.Live != nil && time.Since(lastPub) >= livePublishEvery {
				m.publishLive(false)
				lastPub = time.Now()
			}
		}
	}
	return nil
}

// watchdogScan computes the watchdog verdict over every processor: the
// earliest time an unfinished processor runs out of its no-progress
// budget, and which processor that is. A window opening strictly past the
// limit aborts the run.
func (m *Machine) watchdogScan() (limit sim.Time, stuck int) {
	limit, stuck = never, -1
	budget := m.cfg.StuckBudget
	if budget == 0 {
		return limit, stuck
	}
	for _, p := range m.procs {
		if p.done {
			continue
		}
		if l := p.lastProgress + budget; l < limit {
			limit = l
			stuck = p.id
		}
	}
	return limit, stuck
}

// fold folds into reg what the machine records outside it: the
// per-cluster RAC occupancy gauges, and the exact invalidation histograms
// each burst and recall is recorded in once. It also reports
// mesh.maxhops as the high-water mark it is: its level is set to the
// mark. It runs once on the registry at quiescence, and on a copy for
// each live snapshot.
func (m *Machine) fold(reg *obs.Registry) {
	rp := reg.Gauge("rac.pending")
	for _, c := range m.clusters {
		rp.Merge(&c.racPend)
	}
	mh := reg.Gauge("mesh.maxhops")
	mh.Set(mh.Max())
	foldHist(reg.Histogram("dir.inval.fanout", nil), &m.invalHist)
	foldHist(reg.Histogram("dir.repl.fanout", nil), &m.replHist)
}

// foldHist records every sample of the exact histogram src into dst.
func foldHist(dst *obs.Histogram, src *stats.Histogram) {
	for k := 0; k <= src.Max(); k++ {
		dst.ObserveN(uint64(k), src.Count(k))
	}
}

// scheduleSample schedules the next queue-depth sample at t, on the
// reserved ordering key 0 — below every real event key (cluster 0's
// sequence starts at 1) — so the sample fires before any event of cycle t
// and enabling sampling shifts no protocol event's position.
func (m *Machine) scheduleSample(t sim.Time) {
	m.w.AtKey(t, 0, sim.Event{Stage: uint32(stSample)})
}

// sample is the periodic queue-depth sampler (Config.SampleEvery): it
// reads each cluster's directory-controller backlog, live directory
// entries and network ejection-port backlog at the start of the cycle.
// Sampling only reads, so it never changes results. The chain reschedules
// itself unconditionally; the loop stops the run once only the chain is
// pending (see run).
func (m *Machine) sample() {
	now := m.now()
	for _, cl := range m.clusters {
		var backlog sim.Time
		if cl.dirFree > now {
			backlog = cl.dirFree - now
		}
		m.dirDepth.Observe(uint64(backlog))
		m.dirLive.Observe(uint64(cl.dir.LiveEntries()))
		m.portDepth.Observe(uint64(m.net.PortBacklog(cl.id, now)))
	}
	m.scheduleSample(now + m.cfg.SampleEvery)
}

// liveMetrics returns the registry view a live snapshot should carry: the
// settled registry once the run has finished, and before that a copy with
// the per-cluster gauges folded in.
func (m *Machine) liveMetrics() obs.Snapshot {
	if m.settled {
		return m.reg.Snapshot()
	}
	r := obs.NewRegistry()
	r.Merge(m.reg)
	m.fold(r)
	return r.Snapshot()
}

// publishLive installs a fresh sample in the run's live slot, if one is
// attached (Config.Live).
func (m *Machine) publishLive(done bool) {
	lr := m.cfg.Live
	if lr == nil {
		return
	}
	lr.Publish(&obs.LiveSample{
		Cycles:  uint64(m.now()),
		Events:  m.w.Fired(),
		Done:    done,
		Metrics: m.liveMetrics(),
	})
}
