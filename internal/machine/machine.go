package machine

import (
	"fmt"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/core"
	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/rng"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// Machine is one simulated DASH-style multiprocessor.
type Machine struct {
	cfg      Config
	t        Timing
	net      *mesh.Mesh
	scheme   core.Scheme // cluster 0's scheme instance, which names and sizes the Result
	clusters []*clusterNode
	procs    []*proc
	barriers *protocol.BarrierTable

	// w is the one timing wheel every event fires on, stepped on the
	// calling goroutine (see loop.go). settled is set once the per-cluster
	// gauges have been folded into the registry at quiescence.
	w       *sim.Wheel
	settled bool

	// Observability. The machine owns reg; MetricsSnapshot reads it.
	// The tracer is nil when tracing is off, and spans is nil when span
	// tracing is off. txOn is set when spans are recorded or the checker
	// is on: either one needs the transaction machinery (span.go). Each
	// processor carries its own open lock-round transaction (proc.lockTx).
	reg   *obs.Registry
	tr    *obs.Tracer
	spans *obs.SpanRecorder
	txOn  bool

	kindCtr     [protocol.NumMsgKinds]*obs.Counter // per-message-kind counters ("msg.<kind>")
	lockRetries *obs.Counter                       // "lock.retries"
	mergedReads *obs.Counter                       // "rac.merged.reads": misses merged onto an outstanding request
	extraInval  *obs.Counter                       // "dir.inval.extraneous": invalidations that found no copy

	// Transaction latency histograms ("tx.lat.<class>"; entries nil when
	// txOn is off) and queue-depth sampling histograms (nil when
	// Config.SampleEvery is 0).
	txLat     [obs.NumTxClasses]*obs.Histogram
	dirDepth  *obs.Histogram // "dir.queue.depth"
	dirLive   *obs.Histogram // "dir.entries.live"
	portDepth *obs.Histogram // "mesh.port.backlog"
	txSlab    []txState      // never-used transaction records, carved in batches
	txCarved  int            // transaction records carved so far
	txFree    []*txState     // finished transaction records, reused first

	// recs holds the operands of home-side and per-message event chains
	// (see event.go); envs holds the fault model's message envelopes.
	recs slab[rec]
	envs slab[netMsg]

	// The exact distributions of Figures 3-6 and Result, folded into the
	// registry's "dir.inval.fanout" and "dir.repl.fanout" (see fold).
	invalHist stats.Histogram // invalidations per invalidation event (Figs 3-6)
	replHist  stats.Histogram // invalidations per sparse replacement
	readLat   stats.LatHist   // read completion latency
	writeLat  stats.LatHist   // write completion latency (to ownership)

	// chk is the runtime invariant checker (nil when Config.Check is off;
	// the nil test is the whole disabled-path cost), which also holds the
	// per-block shadow records the checks read (check.Block). faultFired
	// latches the single-shot fault injection (Config.Fault). copyBuf is
	// the scratch slice blockCopies reuses to build predicate views.
	chk        *check.Recorder
	faultFired bool
	copyBuf    []check.Copy

	// Delivery recovery, active only when the mesh fault model is on
	// (faultsOn): every message becomes a sequence-numbered netMsg envelope
	// in inflight until delivered, with retry and duplicate-suppression
	// counters. See net.go.
	faultsOn      bool
	msgSeq        uint64
	inflight      map[uint64]uint32 // message id -> envs index
	retryCnt      *obs.Counter      // "net.retry.count"
	retryGiveup   *obs.Counter      // "net.retry.giveup"
	dupSuppressed *obs.Counter      // "net.dup.suppressed"
}

// txSlabMin and txSlabLen bound how many transaction records the machine
// allocates at once.
const (
	txSlabMin = 32
	txSlabLen = 256
)

// clusterNode is one processing node: processors, bus, memory+directory.
//
// The scheme instance (some schemes draw victims from a private random
// stream) and the lock table built on it are per cluster, so each
// cluster's victim stream is its own. The RAC occupancy gauge is per
// cluster too: "rac.pending" reports the highest peak any one cluster
// reached, folded into the registry at quiescence. The gate, RAC and lock
// table are values that make their maps on first insert, so a cluster
// that never serializes a block, recalls an entry or takes a lock pays
// nothing for them.
type clusterNode struct {
	id      int
	evSeq   uint64      // per-cluster event sequence, the wheel ordering key
	spanSeq uint64      // per-cluster span-ID sequence (see spanID)
	scheme  core.Scheme // this cluster's scheme instance
	locks   protocol.LockTable
	racPend obs.Gauge // "rac.pending", folded into the registry at quiescence
	dir     sparse.Directory
	gate    protocol.Gate
	rac     protocol.RAC
	busFree sim.Time
	dirFree sim.Time
	busBusy sim.Time // cumulative bus occupancy (utilization accounting)
	dirBusy sim.Time // cumulative directory occupancy
	procs   []*proc  // this cluster's run of Machine.procs
	// tree holds this cluster's nodes of the combining tree, one per tree
	// barrier in progress here; a finished episode's node serves the next.
	tree []treeNode
	// wbExpected counts writebacks known to be in flight to this home:
	// when a request arrives from the very cluster the directory records
	// as dirty owner, the owner must have evicted its copy, so a
	// writeback is on the way. The next writeback for the block is then
	// stale with respect to the re-granted ownership and must be
	// dropped, not applied. The map is made on first write.
	wbExpected map[int64]int
}

// treeNode is a cluster's node of the combining tree for one barrier
// episode: the arrivals it has combined (its local processors and its
// completed child subtrees) and its local processors parked until the
// release comes down. It is idle, free for any barrier address, when both
// are empty.
type treeNode struct {
	addr    int64
	arrived int
	waiting []*proc
}

// missKind names the remote miss a processor leads: the cluster's other
// accesses to the same block merge onto it instead of sending their own
// request (MSHR merging, as the DASH RAC does).
type missKind uint8

const (
	noMiss    missKind = iota
	readMiss           // a ReadReq in flight: merged reads ride its reply
	writeMiss          // a WriteReq or UpgradeReq in flight: merged accesses retry over the bus when it lands
)

// proc is one simulated processor.
type proc struct {
	id     int
	cl     *clusterNode
	h      *cache.Hierarchy
	stream tango.Stream

	// The outstanding access's operands, which the processor-side stages
	// of its miss chain read with opWrite (a processor has one access
	// outstanding): block and upgrade are set when the access reaches the
	// bus, tx when its request leaves the cluster.
	block   int64
	upgrade bool
	tx      *txState

	// The cluster's miss state for the outstanding access, held by the
	// processor that owns the miss (one access outstanding per processor,
	// so a cluster finds a block's miss by scanning its processors).
	// miss marks the processor as the leader of a remote miss for block.
	// poisoned marks a leading read whose block was invalidated while the
	// reply was in flight: the data is delivered but must not be cached
	// (the invalidation logically follows the read) — the RAC's
	// conflict-resolution function. merged heads the accesses merged onto
	// the miss, in arrival order, linked through nextMerged.
	miss       missKind
	poisoned   bool
	merged     *proc
	nextMerged *proc

	// The synchronization reference at the release-consistency fence:
	// fenced marks it waiting for the processor's acks to drain.
	syncOp   tango.Op
	syncAddr int64
	fenced   bool

	pendingAcks   int
	grantOwed     bool // a remote write's ownership reply, which carries its ack count, has not landed
	heldAcks      int  // acks that overtook the owed reply, settled when it lands
	drainToFinish bool
	done          bool
	finish        sim.Time
	opPending     bool // a data reference is in flight (latency accounting)
	opWrite       bool // the data reference in flight is a write
	opStart       sim.Time
	lastProgress  sim.Time // last cycle this processor advanced (liveness watchdog)
	lockTx        *txState // open lock-round transaction (txOn only)
}

// New builds a machine from cfg. Configurations that fail Validate are
// reported as errors, never panics.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.Cache == (cache.Config{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	cfg.Cache.Block = cfg.Block
	clusters := cfg.Clusters()
	if cfg.Mesh.Base == 0 && cfg.Mesh.PerHop == 0 {
		// Keep a caller-specified PortTime and fault model while
		// defaulting latencies.
		port, faults := cfg.Mesh.PortTime, cfg.Mesh.Faults
		cfg.Mesh = mesh.DefaultConfig(clusters)
		cfg.Mesh.PortTime = port
		cfg.Mesh.Faults = faults
	}
	cfg.Mesh.Nodes = clusters

	reg := obs.NewRegistry()
	if cfg.Mesh.Faults.Enabled() && cfg.Mesh.Faults.Seed == 0 {
		// Derive the fault stream from the machine seed (stream -1 keeps it
		// clear of the per-cluster directory streams) so one -seed flag
		// still pins the whole run.
		cfg.Mesh.Faults.Seed = rng.Mix(cfg.Seed, -1)
	}

	m := &Machine{
		cfg:   cfg,
		t:     cfg.Timing,
		w:     sim.NewWheel(0),
		reg:   reg,
		tr:    cfg.Trace,
		spans: cfg.Spans,
		// The checker cross-checks span tiling, so the transaction
		// machinery runs even when the caller records no spans.
		txOn: cfg.Spans != nil || cfg.Check,
	}
	if cfg.Check {
		m.chk = check.NewRecorder(reg, cfg.CheckSink, cfg.Procs)
	}

	mc := cfg.Mesh
	mc.Metrics = reg
	m.net = mesh.New(mc)
	m.barriers = protocol.NewBarrierTable(cfg.Procs)
	m.lockRetries = reg.Counter("lock.retries")
	m.mergedReads = reg.Counter("rac.merged.reads")
	m.extraInval = reg.Counter("dir.inval.extraneous")
	for k := range m.kindCtr {
		m.kindCtr[k] = reg.Counter(protocol.MsgKind(k).MetricName())
	}
	// A disabled feature contributes no zero-valued series.
	if m.txOn {
		for c := range m.txLat {
			m.txLat[c] = reg.Histogram(txLatName[c], obs.LatBuckets)
		}
	}
	if cfg.SampleEvery > 0 {
		m.dirDepth = reg.Histogram("dir.queue.depth", obs.QueueBuckets)
		m.dirLive = reg.Histogram("dir.entries.live", obs.QueueBuckets)
		m.portDepth = reg.Histogram("mesh.port.backlog", obs.QueueBuckets)
	}
	// The per-cluster gauges and the exact histograms fold into these at
	// quiescence (see fold).
	reg.Gauge("rac.pending")
	reg.Histogram("dir.inval.fanout", nil)
	reg.Histogram("dir.repl.fanout", nil)

	// Each kind of per-cluster and per-processor state is one slice, so
	// construction makes a fixed number of allocations plus the schemes'.
	nodes := make([]clusterNode, clusters)
	m.clusters = make([]*clusterNode, clusters)
	var fullMaps []sparse.FullMap
	if cfg.Overflow == nil && cfg.Sparse.Entries == 0 {
		fullMaps = make([]sparse.FullMap, clusters)
	}
	gateWaits := reg.Counter("gate.waits")
	for c := range nodes {
		scheme, err := cfg.Scheme(clusters)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		cl := &nodes[c]
		cl.id, cl.scheme = c, scheme
		cl.locks.Scheme = scheme
		if cfg.Overflow != nil {
			cl.dir = sparse.NewOverflow(sparse.OverflowConfig{
				Ptrs:        cfg.Overflow.Ptrs,
				Nodes:       clusters,
				WideEntries: cfg.Overflow.WideEntries,
				Assoc:       cfg.Overflow.Assoc,
				Policy:      cfg.Overflow.Policy,
				Seed:        rng.Mix(cfg.Seed, int64(c)),
				Metrics:     reg,
			})
		} else if cfg.Sparse.Entries > 0 {
			assoc := cfg.Sparse.Assoc
			if assoc == 0 {
				assoc = 4 // the paper's main sparse setting
			}
			cl.dir = sparse.New(sparse.Config{
				Scheme:  scheme,
				Entries: cfg.Sparse.Entries,
				Assoc:   assoc,
				Policy:  cfg.Sparse.Policy,
				Seed:    rng.Mix(cfg.Seed, int64(c)),
				Metrics: reg,
			})
		} else {
			fullMaps[c].Init(scheme, reg)
			cl.dir = &fullMaps[c]
		}
		cl.gate.Waits = gateWaits
		cl.rac.Pend = &cl.racPend
		if m.chk != nil {
			cl.gate.Anomaly = func(op string, block int64) { m.protoAnomaly(cl, op, block) }
			cl.rac.Anomaly = func(op string, block int64) { m.protoAnomaly(cl, op, block) }
		}
		m.clusters[c] = cl
	}
	m.scheme = m.clusters[0].scheme
	procs := make([]proc, cfg.Procs)
	caches := cache.NewHierarchies(cfg.Cache, cfg.Procs)
	m.procs = make([]*proc, cfg.Procs)
	for i := range procs {
		p := &procs[i]
		p.id, p.cl, p.h = i, m.clusters[i/cfg.ProcsPerCluster], &caches[i]
		m.procs[i] = p
	}
	for c, cl := range m.clusters {
		cl.procs = m.procs[c*cfg.ProcsPerCluster : (c+1)*cfg.ProcsPerCluster]
	}
	if m.net.FaultsEnabled() {
		m.faultsOn = true
		m.inflight = make(map[uint64]uint32)
		m.retryCnt = reg.Counter("net.retry.count")
		m.retryGiveup = reg.Counter("net.retry.giveup")
		m.dupSuppressed = reg.Counter("net.dup.suppressed")
		if m.cfg.Retry.MaxRetries == 0 {
			m.cfg.Retry.MaxRetries = DefaultMaxRetries
		}
		if m.cfg.StuckBudget == 0 {
			m.cfg.StuckBudget = DefaultStuckBudget
		}
	}
	return m, nil
}

// Scheme returns the machine's directory entry scheme.
func (m *Machine) Scheme() core.Scheme { return m.scheme }

// Shards returns 1: every machine runs on one timing wheel on the calling
// goroutine. It is kept, with FallbackReason, because perfbench prints both
// in its engine line.
func (m *Machine) Shards() int { return 1 }

// FallbackReason returns "": no configuration changes the core a machine
// runs on. It is kept, with Shards, because perfbench prints both in its
// engine line.
func (m *Machine) FallbackReason() string { return "" }

// nextKey returns the cluster's next event ordering key: the scheduling
// cluster in the high bits, its per-cluster sequence below. Keys are unique
// per cluster and ordered first by cluster id on ties, so the total
// (time, key) event order depends only on per-cluster scheduling order.
func (c *clusterNode) nextKey() uint64 {
	c.evSeq++
	return uint64(c.id)<<40 | c.evSeq
}

// now returns the current simulation time.
func (m *Machine) now() sim.Time { return m.w.Now() }

// at schedules ev at absolute time t in cluster c's context: the event
// takes c's next ordering key.
func (m *Machine) at(c *clusterNode, t sim.Time, ev sim.Event) {
	m.w.AtKey(t, c.nextKey(), ev)
}

// Events returns the number of events fired so far.
func (m *Machine) Events() uint64 { return m.w.Fired() }

// block converts a byte address to a block number.
func (m *Machine) block(addr int64) int64 { return addr / int64(m.cfg.Block) }

// home returns the cluster holding block's memory and directory entry.
// Memory is distributed round-robin by block, as in the paper's simulator.
func (m *Machine) home(block int64) int {
	return int(uint64(block) % uint64(len(m.clusters)))
}

// dirKey converts a global block number to the home-local block index the
// directory is addressed with. Blocks homed at cluster c are exactly those
// congruent to c modulo the cluster count, so the low bits carry no
// information; a sparse directory indexed by the raw block number would
// alias every local block into one set.
func (m *Machine) dirKey(block int64) int64 {
	return block / int64(len(m.clusters))
}

// keyBlock is the inverse of dirKey for blocks homed at cluster c.
func (m *Machine) keyBlock(key int64, c int) int64 {
	return key*int64(len(m.clusters)) + int64(c)
}

// dirEntry returns the directory entry for a global block number (a
// convenience for tests and validators). It peeks: recency state and the
// dir.* counters are untouched, so validators never perturb the run.
func (m *Machine) dirEntry(block int64) core.Entry {
	h := m.clusters[m.home(block)]
	return h.dir.Peek(m.dirKey(block))
}

// busOp reserves cluster c's bus for dur cycles starting no earlier than
// now, FCFS, and returns the completion time.
func (m *Machine) busOp(c *clusterNode, dur sim.Time) sim.Time {
	start := m.now()
	if c.busFree > start {
		start = c.busFree
	}
	c.busFree = start + dur
	c.busBusy += dur
	return c.busFree
}

// dirOp reserves cluster c's directory controller, FCFS.
func (m *Machine) dirOp(c *clusterNode, dur sim.Time) sim.Time {
	start := m.now()
	if c.dirFree > start {
		start = c.dirFree
	}
	c.dirFree = start + dur
	c.dirBusy += dur
	return c.dirFree
}

// occupyDir extends cluster c's directory busy window by dur without
// waiting for it (used to model the finite invalidation send rate).
func (m *Machine) occupyDir(c *clusterNode, dur sim.Time) {
	if now := m.now(); c.dirFree < now {
		c.dirFree = now
	}
	c.dirFree += dur
	c.dirBusy += dur
}

// send counts one protocol message and schedules its arrival event.
func (m *Machine) send(kind protocol.MsgKind, from, to int, arrive sim.Event) {
	m.sendTx(kind, from, to, nil, arrive)
}

// sendTx is send with transaction context, and returns the delivery time.
// Under the fault model the message travels as a recoverable envelope (see
// net.go) whose retries are annotated onto tx as net.recovery spans, and
// the delivery time is unknowable at send time: sendTx returns 0. With
// faults off it is the plain mesh path — no envelope, no extra state, no
// RNG draws — so fault-free runs are unaffected by the recovery layer.
func (m *Machine) sendTx(kind protocol.MsgKind, from, to int, tx *txState, arrive sim.Event) sim.Time {
	if from == to {
		panic(fmt.Sprintf("machine: message %v from cluster %d to itself", kind, from))
	}
	fc := m.clusters[from]
	m.kindCtr[kind].Inc()
	if m.faultsOn {
		m.sendReliable(fc, kind, to, tx, arrive)
		return 0
	}
	t := m.net.SendAt(m.now(), from, to)
	m.at(fc, t, arrive)
	return t
}

// trace emits one structured event when tracing is on. The nil test is the
// whole disabled-path cost. node is always the executing cluster.
func (m *Machine) trace(kind obs.EventKind, node int, block, arg int64) {
	if m.tr == nil {
		return
	}
	m.tr.Emit(obs.Event{T: uint64(m.now()), Node: int32(node), Kind: kind, Block: block, Arg: arg})
}

// MetricsSnapshot freezes the machine's metrics registry — every named
// counter, gauge and histogram the run recorded, with the per-cluster
// gauges folded in once the run has finished.
func (m *Machine) MetricsSnapshot() obs.Snapshot { return m.reg.Snapshot() }

// FlushTrace drains the tracer's pending events to its sink and reports
// the first sink error. It is safe to call with tracing disabled.
func (m *Machine) FlushTrace() error { return m.tr.Flush() }

// FlushSpans drains the span recorder's pending spans to its sink and
// reports the first sink error. It is safe to call with spans disabled.
func (m *Machine) FlushSpans() error { return m.spans.Flush() }

// complete schedules p's next reference at time at.
func (m *Machine) complete(p *proc, at sim.Time) {
	m.at(p.cl, at, procEv(stStep, p))
}

// stepProc issues p's next reference, or retires p.
func (m *Machine) stepProc(p *proc) {
	now := m.now()
	p.lastProgress = now
	if p.opPending {
		p.opPending = false
		if p.opWrite {
			m.writeLat.Add(m.cycleDelta(now, p.opStart, "write latency"))
		} else {
			m.readLat.Add(m.cycleDelta(now, p.opStart, "read latency"))
		}
	}
	ref, ok := p.stream.Next()
	if !ok {
		if p.pendingAcks > 0 {
			p.drainToFinish = true
			return
		}
		m.finishProc(p)
		return
	}
	switch op, addr := ref.Op(), ref.Addr(); op {
	case tango.Read:
		m.access(p, false, addr)
	case tango.Write:
		m.access(p, true, addr)
	case tango.Lock, tango.Unlock, tango.Barrier:
		p.syncOp, p.syncAddr = op, addr
		m.fence(p)
	default:
		panic(fmt.Sprintf("machine: unknown op %v", op))
	}
}

func (m *Machine) finishProc(p *proc) {
	p.done = true
	p.finish = m.now()
}

// fence runs p's synchronization reference once p's outstanding
// invalidation acknowledgements have drained — DASH's release-consistency
// fence at synchronization points.
func (m *Machine) fence(p *proc) {
	if p.pendingAcks == 0 {
		if m.chk != nil {
			m.chk.Drained(p.id, uint64(m.now()))
		}
		m.runSync(p)
		return
	}
	if p.fenced {
		if m.chk != nil {
			m.chk.Violationf(check.RuleProtocol, int32(p.cl.id), -1, uint64(m.now()),
				"double fence: proc %d reached a second synchronization point with one already pending", p.id)
		}
		panic(fmt.Sprintf("machine: double fence at proc %d", p.id))
	}
	p.fenced = true
}

// runSync runs p's synchronization reference.
func (m *Machine) runSync(p *proc) {
	switch p.syncOp {
	case tango.Lock:
		m.lockAcquire(p, p.syncAddr, false)
	case tango.Unlock:
		m.lockRelease(p, p.syncAddr)
	default:
		m.barrierArrive(p, p.syncAddr)
	}
}

// ackArrived records one invalidation acknowledgement for p's oldest write.
// While p's ownership reply is still owed the ack is held instead: the
// reply carries the count the ack is charged against, and an ack can
// overtake it when the fault model delays or retries the reply, or when
// degenerate timing ties the two.
func (m *Machine) ackArrived(p *proc) {
	p.lastProgress = m.now()
	if p.grantOwed {
		p.heldAcks++
		return
	}
	p.pendingAcks--
	if m.chk != nil {
		m.chk.AckArrived(p.id, uint64(m.now()))
	}
	if p.pendingAcks < 0 {
		panic(fmt.Sprintf("machine: negative pending acks at proc %d", p.id))
	}
	if p.pendingAcks == 0 {
		if m.chk != nil {
			m.chk.Drained(p.id, uint64(m.now()))
		}
		if p.fenced {
			p.fenced = false
			m.runSync(p)
		}
		if p.drainToFinish {
			p.drainToFinish = false
			m.finishProc(p)
		}
	}
}

// grantAcks credits p with the n acknowledgements its ownership reply
// carries and settles the acks held while the reply was owed. Settling
// runs the ordinary path, so an over-acknowledgement still panics there.
func (m *Machine) grantAcks(p *proc, n int) {
	p.grantOwed = false
	p.pendingAcks += n
	if m.chk != nil {
		m.chk.AckExpect(p.id, n)
	}
	for ; p.heldAcks > 0; p.heldAcks-- {
		m.ackArrived(p)
	}
}

// Run executes workload w to completion and returns the measurements.
func (m *Machine) Run(w *tango.Workload) (*Result, error) {
	if w.Procs() != m.cfg.Procs {
		return nil, fmt.Errorf("machine: workload has %d streams, machine has %d procs", w.Procs(), m.cfg.Procs)
	}
	for i, p := range m.procs {
		p.stream = tango.NewStream(w.Streams[i])
		m.at(p.cl, 0, procEv(stStep, p))
	}
	if m.cfg.SampleEvery > 0 {
		m.scheduleSample(m.cfg.SampleEvery)
	}
	if m.cfg.Live != nil {
		defer m.publishLive(true)
	}
	err := m.run()
	m.fold(m.reg)
	m.settled = true
	if err != nil {
		return nil, err
	}
	for _, p := range m.procs {
		if !p.done {
			if m.faultsOn || m.cfg.StuckBudget > 0 {
				// The event queue drained with work remaining: a message was
				// abandoned after its retry budget, so the dependent
				// transaction can never complete. Report it like a watchdog
				// catch, with the full dump.
				return nil, m.abort(fmt.Sprintf("event queue drained with proc %d unfinished (%d refs remaining, %d acks pending) — undeliverable message",
					p.id, p.stream.Remaining(), p.pendingAcks))
			}
			return nil, fmt.Errorf("machine: deadlock — proc %d stuck with %d refs remaining, %d acks pending",
				p.id, p.stream.Remaining(), p.pendingAcks)
		}
	}
	m.finishChecks()
	return m.result(), nil
}
