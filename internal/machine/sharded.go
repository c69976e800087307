package machine

// The machine core: a conservative-lookahead discrete-event simulator on
// keyed timing wheels.
//
// Clusters are partitioned round-robin across N shards, each owning a
// timing wheel (sim.Wheel). Every event carries a key naming the cluster
// that scheduled it and that cluster's event sequence, and a wheel fires
// equal-time events in ascending key order, so the total (time, key)
// event order depends only on per-cluster scheduling order. Width 1 — the
// default — steps one wheel in that order on the calling goroutine.
//
// Wider runs advance all shards in lockstep windows [W, W+look), where
// look is the minimum cross-cluster mesh latency: an event at time t can
// only affect another cluster at t+latency >= t+look, so everything inside
// the current window is causally independent across shards and can run in
// parallel. Cross-shard messages are buffered in per-(src,dst) outboxes
// during a window and exchanged at the barrier; the receiver inserts them
// with their original keys, so the event order — and therefore every
// simulation result — is byte-identical at every width. Width 1 walks the
// same window boundaries without barriers, which is where the liveness
// watchdog and the sampling stop rule decide, so their verdicts match
// wider runs too.
//
// Observability shards with the simulation: every shard records metrics
// into its own registry (merged at quiescence), and on wider runs trace
// events and spans are buffered per shard with (time, key) stamps and
// replayed in the canonical order — see shardobs.go.
//
// Configurations that share mutable state across clusters outside this
// protocol — fault injection and delivery recovery, the invariant checker,
// mesh port contention, deliberate protocol faults — clamp to width 1,
// where that state has a single writer; Machine.FallbackReason names the
// flag.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// never is the "no pending event" sentinel for window arithmetic.
const never = ^sim.Time(0)

// clampReason reports why cfg must run at width 1, or "" when any width
// works. Called after New has applied timing and mesh defaults. Each
// message names the offending flag. Observability (tracing, spans,
// sampling, external metrics) never clamps: the per-shard buffers and
// registry merge reproduce the width-1 byte stream.
func clampReason(cfg *Config) string {
	const clamp = "clamped to width 1: "
	switch {
	case cfg.Mesh.Faults.Enabled():
		return clamp + "fault injection (-faults): delivery recovery tracks in-flight messages machine-wide"
	case cfg.Check:
		return clamp + "invariant checker (-check): the checker reads machine-wide state at every transition"
	case cfg.Mesh.PortTime > 0:
		return clamp + "mesh port contention (mesh PortTime > 0): ejection ports serialize arrivals from every cluster"
	case cfg.Fault != FaultNone:
		return clamp + "protocol fault (-fault): the mutation is a single machine-wide shot"
	}
	return ""
}

// relayEv is one cross-shard event in transit through an outbox.
type relayEv struct {
	at  sim.Time
	key uint64
	fn  sim.Event
}

// shardedCore drives the run.
type shardedCore struct {
	m      *Machine
	n      int
	look   sim.Time
	wheels []*sim.Wheel

	// out[src][dst] buffers events shard src scheduled into shard dst's
	// clusters during the current window; dst drains its column at the
	// barrier. Only src appends, only dst drains, and the two phases are
	// barrier-separated.
	out [][][]relayEv

	// nextT[s] is shard s's earliest pending event after the exchange, and
	// busy[s] whether it has any pending event besides its sampling chain;
	// every worker computes the identical next window from them.
	nextT []sim.Time
	busy  []bool

	// obsBuf[s] is shard s's private trace-event and span buffer cell on
	// runs wider than 1, stamped with firing positions and merged into the
	// canonical order at quiescence (shardobs.go). Only shard s appends;
	// the merge runs after the workers join. Cells are cache-line padded:
	// appends rewrite the slice headers constantly, and adjacent headers
	// would false-share.
	obsBuf []shardObsCell

	barrier  spinBarrier
	deadline time.Duration
	start    time.Time
	wallHit  bool // worker 0 samples the wall clock; read after the barrier
	budget   sim.Time
	lastPub  time.Time // worker 0's live-publish throttle (Config.Live)

	// Initial watchdog verdict, computed before the workers start (every
	// worker seeds its local copy from these, then rescans between the
	// barriers where no shard is mutating processor state).
	wdLimit sim.Time
	wdStuck int
}

func newShardedCore(m *Machine, n int) *shardedCore {
	// Dimension-ordered routing makes the latency between two adjacent
	// nodes the minimum over distinct pairs, and nodes 0 and 1 are adjacent
	// in every mesh of two or more nodes.
	look := sim.Time(1) // one cluster: no cross-cluster traffic exists
	if m.net.Nodes() > 1 {
		look = m.net.Latency(0, 1)
	}
	if look == 0 {
		panic("machine: the core needs a positive minimum mesh latency")
	}
	s := &shardedCore{
		m:      m,
		n:      n,
		look:   look,
		wheels: make([]*sim.Wheel, n),
		out:    make([][][]relayEv, n),
		nextT:  make([]sim.Time, n),
		busy:   make([]bool, n),
	}
	if n > 1 {
		s.obsBuf = make([]shardObsCell, n)
	}
	for i := range s.wheels {
		s.wheels[i] = sim.NewWheel(0)
		s.out[i] = make([][]relayEv, n)
	}
	s.barrier.parties = int32(n)
	return s
}

// relay schedules fn at absolute time t in cluster to's context from
// cluster from's context, with from's next deterministic ordering key.
// Same-shard targets insert directly; cross-shard targets go through the
// outbox and must lie beyond the conservative lookahead.
func (s *shardedCore) relay(from, to *clusterNode, t sim.Time, fn sim.Event) {
	key := from.nextKey()
	if to.w == from.w {
		from.w.AtKey(t, key, fn)
		return
	}
	if t < from.w.Now()+s.look {
		panic(fmt.Sprintf("machine: cross-shard event at t=%d inside the lookahead window (now=%d, look=%d)",
			t, from.w.Now(), s.look))
	}
	s.out[from.shard][to.shard] = append(s.out[from.shard][to.shard], relayEv{at: t, key: key, fn: fn})
}

// run executes the window loop to completion (or abort) and reports the
// abort error, if any.
func (s *shardedCore) run() error {
	s.deadline = s.m.cfg.Deadline
	s.budget = s.m.cfg.StuckBudget
	for i := range s.wheels {
		s.publish(i)
	}
	if s.deadline > 0 {
		s.start = time.Now()
	}
	if s.m.cfg.Live != nil {
		s.lastPub = time.Now()
	}
	s.wdLimit, s.wdStuck = s.watchdogScan()
	if s.n == 1 {
		s.worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(s.n)
		for i := 0; i < s.n; i++ {
			go func(id int) {
				defer wg.Done()
				s.worker(id)
			}(i)
		}
		wg.Wait()
	}
	if s.m.aborted != nil {
		return s.m.aborted
	}
	return nil
}

// publish records shard id's next event time and whether anything but
// its sampling chain is pending — the inputs of the next window.
func (s *shardedCore) publish(id int) {
	w := s.wheels[id]
	s.nextT[id] = never
	if t, ok := w.NextTime(); ok {
		s.nextT[id] = t
	}
	sampler := 0
	if s.m.cfg.SampleEvery > 0 {
		sampler = 1
	}
	s.busy[id] = w.Pending() > sampler
}

// wallEvery is how many windows pass between worker 0's wall-clock reads
// for the deadline and the live-publish throttle, keeping the clock read
// off the per-window path.
const wallEvery = 64

// worker is one shard's loop. Each iteration: every worker independently
// computes the identical next window from the shared nextT and busy arrays
// (and the identical watchdog verdict, so all workers stop together
// without any shared decision variable), runs its wheel through the
// window, then exchanges outboxes and republishes its next event time
// between two barriers. The run ends when no event is pending, or when
// only sampling chains are: they read state without changing it, so no
// processor can make progress any more.
//
// Memory discipline: processor and cluster state is only written while a
// shard runs its wheel (between the loop top and the first barrier), and
// only read machine-wide between the two barriers or at the loop top
// using values captured there. The watchdog verdict therefore cannot be
// computed at the loop top (another shard may already be firing events);
// each worker rescans between the barriers and carries the verdict into
// the next iteration in locals.
func (s *shardedCore) worker(id int) {
	m := s.m
	limit, stuck := s.wdLimit, s.wdStuck
	for iter := 1; ; iter++ {
		window, busy := never, false
		for i, t := range s.nextT {
			window = min(window, t)
			busy = busy || s.busy[i]
		}
		if window == never || !busy {
			return
		}
		if s.wallHit {
			if id == 0 {
				m.abort(fmt.Sprintf("wall-clock deadline %s exceeded at t=%d", s.deadline, window))
			}
			return
		}
		if s.budget > 0 && window > limit {
			// Deterministic liveness watchdog: the next window starting
			// more than a budget past a processor's last progress.
			if id == 0 {
				m.abort(fmt.Sprintf("liveness watchdog: proc %d made no progress for over %d cycles (budget exceeded at t=%d)",
					stuck, s.budget, window))
			}
			return
		}
		w := s.wheels[id]
		w.RunUntil(window + s.look - 1)
		s.barrier.wait()
		for src := range s.out {
			box := s.out[src][id]
			if len(box) == 0 {
				continue
			}
			for _, r := range box {
				w.AtKey(r.at, r.key, r.fn)
			}
			s.out[src][id] = box[:0]
		}
		s.publish(id)
		if s.budget > 0 {
			limit, stuck = s.watchdogScan()
		}
		if id == 0 && iter%wallEvery == 0 {
			if s.deadline > 0 && time.Since(s.start) > s.deadline {
				s.wallHit = true
			}
			if m.cfg.Live != nil && time.Since(s.lastPub) >= livePublishEvery {
				// Between the barriers every shard is quiescent, so worker 0
				// can read all shard registries for a consistent live
				// snapshot.
				m.publishLive(false)
				s.lastPub = time.Now()
			}
		}
		s.barrier.wait()
	}
}

// watchdogScan computes the watchdog verdict over every processor: the
// earliest time an unfinished processor runs out of its no-progress
// budget, and which processor that is. A window opening strictly past the
// limit aborts the run. Only called where no shard is mutating processor
// state (before the workers start, or between the exchange barriers).
func (s *shardedCore) watchdogScan() (limit sim.Time, stuck int) {
	limit, stuck = never, -1
	if s.budget == 0 {
		return limit, stuck
	}
	for _, p := range s.m.procs {
		if p.done {
			continue
		}
		if l := p.lastProgress + s.budget; l < limit {
			limit = l
			stuck = p.id
		}
	}
	return limit, stuck
}

// settle runs once the core stops: it replays the per-shard trace and span
// buffers in canonical order, folds every shard's registry and histograms
// into shard 0's — the machine's registry, which is Config.Metrics when
// the caller supplied one — and folds the per-cluster gauges in. Counter
// sums and bucket-wise histogram merges are order-independent, so the
// result is deterministic and independent of the width.
func (m *Machine) settle() {
	if m.core.n > 1 {
		m.flushShardObs()
	}
	r0 := m.res[0]
	for _, r := range m.res[1:] {
		r0.reg.Merge(r.reg)
		r0.invalHist.Merge(&r.invalHist)
		r0.replHist.Merge(&r.replHist)
		r0.readLat.Merge(&r.readLat)
		r0.writeLat.Merge(&r.writeLat)
	}
	m.foldGauges(m.reg)
	m.settled = true
}

// foldGauges folds the per-cluster RAC occupancy gauges into reg and
// reports mesh.maxhops as the high-water mark it is: merging gauges sums
// their levels, which means nothing for a mark, so its level is set to
// the mark at every width.
func (m *Machine) foldGauges(reg *obs.Registry) {
	rp := reg.Gauge("rac.pending")
	for _, c := range m.clusters {
		rp.Merge(&c.racPend)
	}
	mh := reg.Gauge("mesh.maxhops")
	mh.Set(mh.Max())
}

// simNow returns the machine's current (or final) simulation time: the
// furthest shard wheel.
func (m *Machine) simNow() sim.Time {
	var t sim.Time
	for _, w := range m.core.wheels {
		t = max(t, w.Now())
	}
	return t
}

// simFired returns the total events executed.
func (m *Machine) simFired() uint64 {
	var n uint64
	for _, w := range m.core.wheels {
		n += w.Fired()
	}
	return n
}

// simPending returns the total scheduled-but-unfired events (outbox events
// in transit included).
func (m *Machine) simPending() int {
	n := 0
	for _, w := range m.core.wheels {
		n += w.Pending()
	}
	for _, row := range m.core.out {
		for _, box := range row {
			n += len(box)
		}
	}
	return n
}

// spinBarrier is a sense-reversing spin barrier. Windows are short (often
// a handful of events), so parking on a sync primitive per phase would
// dominate the run; spinning with periodic yields keeps the barrier in the
// tens-of-nanoseconds range. All operations go through sync/atomic, so the
// race detector understands the ordering. With one party it is a no-op.
type spinBarrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

func (b *spinBarrier) wait() {
	if b.parties == 1 {
		return
	}
	s := b.sense.Load()
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.sense.Store(s + 1)
		return
	}
	for spins := 0; b.sense.Load() == s; spins++ {
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}
