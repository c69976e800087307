package machine

// Shard-safe observability for runs wider than one shard.
//
// Width 1 emits traces and spans directly, in the order its one wheel
// fires events. Wider runs cannot: shards interleave nondeterministically
// in wall-clock time. Instead, each shard appends its records to a private
// buffer, stamping every record with the firing event's (wheel time,
// ordering key) position. Keys are globally unique (cluster id in the high
// bits, a per-cluster sequence below), and cross-cluster messages always
// travel at least the conservative lookahead, so the (time, key) order of
// fired events is identical at every shard count — it IS the width-1
// firing order. At quiescence a k-way merge over the per-shard buffers,
// popping the smallest (time, key) head, therefore replays the records in
// exactly the order a width-1 run emitted them, making trace and span
// output byte-identical across widths.
//
// Records a single callback emits share one stamp; they stay adjacent in
// one buffer and the merge preserves their relative order (ties across
// buffers cannot happen because keys are globally unique).

import (
	"sync"
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// keyedEvent is one trace event stamped with its firing position (the
// event's own T field carries the emission time).
type keyedEvent struct {
	key uint64
	ev  obs.Event
}

// keyedSpan is one span stamped with its firing position. Spans need an
// explicit time stamp: a span's End field is its semantic endpoint, which
// for ack-gather children can differ from the cycle it was emitted at.
type keyedSpan struct {
	t   sim.Time
	key uint64
	sp  obs.Span
}

// obsChunkLen is the per-shard record chunk size. Chunks are sealed and a
// fresh one allocated when full, so a record is written exactly once and
// never moved: growing one flat slice instead would memmove the whole
// buffer on every geometric regrowth, which profiles as the single
// largest cost of sharded observability.
const obsChunkLen = 1 << 15

// Chunk pools recycle record chunks across runs: a retained buffer is hot
// for exactly one run, and allocating fresh chunks every run pays the
// allocator's zeroing for tens of megabytes each time.
var (
	evChunkPool = sync.Pool{New: func() any { return make([]keyedEvent, 0, obsChunkLen) }}
	spChunkPool = sync.Pool{New: func() any { return make([]keyedSpan, 0, obsChunkLen) }}
)

// shardObsCell is one shard's record buffers, padded to its own cache
// lines: the hot path rewrites the active-chunk headers on every append,
// and without padding four shards' headers would share a line and thrash
// it. ev/sp are the active chunks; evFull/spFull the sealed ones, in
// append order.
type shardObsCell struct {
	ev     []keyedEvent
	sp     []keyedSpan
	evFull [][]keyedEvent
	spFull [][]keyedSpan
	_      [128 - 96]byte
}

// pushEv appends one trace record; the in-chunk path is small enough to
// inline into the trace hot path, the chunk-seal path is split out.
func (c *shardObsCell) pushEv(e keyedEvent) {
	if len(c.ev) < cap(c.ev) {
		c.ev = append(c.ev, e)
		return
	}
	c.growEv(e)
}

func (c *shardObsCell) growEv(e keyedEvent) {
	if c.ev != nil {
		c.evFull = append(c.evFull, c.ev)
	}
	c.ev = append(evChunkPool.Get().([]keyedEvent)[:0], e)
}

// pushSp appends one span record; same split as pushEv.
func (c *shardObsCell) pushSp(e keyedSpan) {
	if len(c.sp) < cap(c.sp) {
		c.sp = append(c.sp, e)
		return
	}
	c.growSp(e)
}

func (c *shardObsCell) growSp(e keyedSpan) {
	if c.sp != nil {
		c.spFull = append(c.spFull, c.sp)
	}
	c.sp = append(spChunkPool.Get().([]keyedSpan)[:0], e)
}

// evCursor walks one shard's sealed+active event chunks in append order.
type evCursor struct {
	chunks [][]keyedEvent
	i      int
}

func (c *evCursor) head() *keyedEvent {
	for len(c.chunks) > 0 && c.i >= len(c.chunks[0]) {
		c.chunks = c.chunks[1:]
		c.i = 0
	}
	if len(c.chunks) == 0 {
		return nil
	}
	return &c.chunks[0][c.i]
}

// spCursor is evCursor for span chunks.
type spCursor struct {
	chunks [][]keyedSpan
	i      int
}

func (c *spCursor) head() *keyedSpan {
	for len(c.chunks) > 0 && c.i >= len(c.chunks[0]) {
		c.chunks = c.chunks[1:]
		c.i = 0
	}
	if len(c.chunks) == 0 {
		return nil
	}
	return &c.chunks[0][c.i]
}

// flushShardObs replays the per-shard trace and span buffers into the
// machine's recorders in canonical (time, key) order. Called once at
// quiescence on runs wider than 1, before the registries merge.
func (m *Machine) flushShardObs() {
	s := m.core
	var wg sync.WaitGroup
	if m.tr != nil && m.spans != nil {
		// The two merges touch disjoint recorders; overlap them.
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.mergeShardSpans()
		}()
	} else if m.spans != nil {
		m.mergeShardSpans()
	}
	if m.tr != nil {
		cur := make([]evCursor, s.n)
		heads := make([]*keyedEvent, s.n)
		live := 0
		for sh := range cur {
			cell := &s.obsBuf[sh]
			cur[sh].chunks = append(cell.evFull, cell.ev)
			if heads[sh] = cur[sh].head(); heads[sh] != nil {
				live++
			}
		}
		for live > 1 {
			best, bh := -1, (*keyedEvent)(nil)
			for sh, h := range heads {
				if h == nil {
					continue
				}
				if best < 0 || h.ev.T < bh.ev.T || (h.ev.T == bh.ev.T && h.key < bh.key) {
					best, bh = sh, h
				}
			}
			m.tr.Emit(bh.ev)
			cur[best].i++
			if heads[best] = cur[best].head(); heads[best] == nil {
				live--
			}
		}
		// One buffer left: drain its chunks without per-record compares.
		for sh, h := range heads {
			if h == nil {
				continue
			}
			for h != nil {
				m.tr.Emit(h.ev)
				cur[sh].i++
				h = cur[sh].head()
			}
		}
	}
	wg.Wait()
	for i := range s.obsBuf {
		cell := &s.obsBuf[i]
		for _, ch := range cell.evFull {
			evChunkPool.Put(ch[:0])
		}
		if cell.ev != nil {
			evChunkPool.Put(cell.ev[:0])
		}
		for _, ch := range cell.spFull {
			spChunkPool.Put(ch[:0])
		}
		if cell.sp != nil {
			spChunkPool.Put(cell.sp[:0])
		}
		*cell = shardObsCell{}
	}
}

// mergeShardSpans is flushShardObs's span half: the k-way (time, key)
// merge of the per-shard span buffers into the machine recorder.
func (m *Machine) mergeShardSpans() {
	s := m.core
	cur := make([]spCursor, s.n)
	heads := make([]*keyedSpan, s.n)
	live := 0
	for sh := range cur {
		cell := &s.obsBuf[sh]
		cur[sh].chunks = append(cell.spFull, cell.sp)
		if heads[sh] = cur[sh].head(); heads[sh] != nil {
			live++
		}
	}
	for live > 1 {
		best, bh := -1, (*keyedSpan)(nil)
		for sh, h := range heads {
			if h == nil {
				continue
			}
			if best < 0 || h.t < bh.t || (h.t == bh.t && h.key < bh.key) {
				best, bh = sh, h
			}
		}
		m.spans.Emit(bh.sp)
		cur[best].i++
		if heads[best] = cur[best].head(); heads[best] == nil {
			live--
		}
	}
	for sh, h := range heads {
		if h == nil {
			continue
		}
		for h != nil {
			m.spans.Emit(h.sp)
			cur[sh].i++
			h = cur[sh].head()
		}
	}
}

// scheduleSample schedules shard s's next queue-depth sample at t, on the
// reserved ordering key 0 — below every real event key (cluster 0's
// sequence starts at 1) — so the sample fires before any event of cycle t
// and enabling sampling shifts no protocol event's position.
func (m *Machine) scheduleSample(s int, t sim.Time) {
	m.core.wheels[s].AtKey(t, 0, func() { m.sampleShard(s) })
}

// sampleShard is the periodic queue-depth sampler (Config.SampleEvery): it
// reads each of shard s's clusters' directory-controller backlog, live
// directory entries and network ejection-port backlog at the start of the
// cycle, and records into the shard's histograms (merged at quiescence).
// Every event that changes a cluster's state runs on that cluster's shard,
// so the state at the start of a cycle, and therefore every sample, is the
// same at any width; sampling only reads, so it never changes results. The
// chain reschedules itself unconditionally; the core stops the run once
// only sampling chains are pending (see shardedCore.worker).
func (m *Machine) sampleShard(s int) {
	res := m.res[s]
	now := m.core.wheels[s].Now()
	for c := s; c < len(m.clusters); c += m.core.n {
		cl := m.clusters[c]
		var backlog sim.Time
		if cl.dirFree > now {
			backlog = cl.dirFree - now
		}
		res.dirDepth.Observe(uint64(backlog))
		res.dirLive.Observe(uint64(cl.dir.LiveEntries()))
		res.portDepth.Observe(uint64(res.net.PortBacklog(c, now)))
	}
	m.scheduleSample(s, now+m.cfg.SampleEvery)
}

// livePublishEvery throttles in-run snapshot publishing: a sample per
// ~100ms is ample for a human or a poller watching /progress, and the
// wall-clock read happens only when a live slot is attached.
const livePublishEvery = 100 * time.Millisecond

// liveMetrics returns the registry view a live snapshot should carry: the
// settled registry once the run has finished, and before that a read-only
// merge of the shard registries and cluster gauges (callers must hold the
// run quiescent — worker 0 publishes between the window barriers).
func (m *Machine) liveMetrics() obs.Snapshot {
	if m.settled {
		return m.reg.Snapshot()
	}
	r := obs.NewRegistry()
	for _, res := range m.res {
		r.Merge(res.reg)
	}
	m.foldGauges(r)
	return r.Snapshot()
}

// publishLive installs a fresh sample in the run's live slot, if one is
// attached (Config.Live).
func (m *Machine) publishLive(done bool) {
	lr := m.cfg.Live
	if lr == nil {
		return
	}
	s := &obs.LiveSample{
		Events:  m.simFired(),
		Done:    done,
		Metrics: m.liveMetrics(),
		Shards:  make([]uint64, m.core.n),
	}
	for i, w := range m.core.wheels {
		s.Shards[i] = uint64(w.Now())
		// Report the trailing shard as the simulation's reached time:
		// ahead-of-window wheel times are speculative progress.
		if i == 0 || s.Shards[i] < s.Cycles {
			s.Cycles = s.Shards[i]
		}
	}
	lr.Publish(s)
}
