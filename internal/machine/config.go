package machine

import (
	"fmt"
	"time"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/core"
	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
)

// SchemeFactory builds a directory entry scheme for a given cluster count.
// It is the registry's factory type, so anything core.Parse returns plugs
// straight into Config.Scheme.
type SchemeFactory = core.Factory

// Standard scheme factories matching the paper's §5 roster, resolved
// through the core registry.
var (
	// FullVec is Dir_P, the full bit vector.
	FullVec = core.MustParse("full")
	// CoarseVec2 is Dir3CV2, the paper's coarse vector configuration.
	CoarseVec2 = core.MustParse("cv")
	// Broadcast is Dir3B.
	Broadcast = core.MustParse("b")
	// NoBroadcast is Dir3NB with random victim pointers.
	NoBroadcast = core.MustParse("nb")
	// SupersetX is Dir2X.
	SupersetX = core.MustParse("x")
	// TwoLevel is Dir_iR_r with the adaptive region size (region ~ sqrt of
	// the cluster count, at most 4 slots).
	TwoLevel = core.MustParse("tl")
)

// SparseConfig enables the sparse directory when Entries > 0.
type SparseConfig struct {
	Entries int // entry slots per cluster (0 = full-map directory)
	Assoc   int // associativity (default 4, the paper's main setting)
	Policy  sparse.ReplacePolicy
}

// OverflowDirConfig enables the §7 two-level directory: small
// limited-pointer entries per block backed by a per-cluster cache of wide
// full-vector entries.
type OverflowDirConfig struct {
	Ptrs        int // pointers per small entry
	WideEntries int // wide-entry cache slots per cluster
	Assoc       int
	Policy      sparse.ReplacePolicy
}

// BarrierKind selects the barrier implementation.
type BarrierKind int

const (
	// CentralBarrier counts arrivals at the barrier word's home cluster
	// (simple, but a hot spot at scale).
	CentralBarrier BarrierKind = iota
	// TreeBarrier combines arrivals up a tree of clusters and fans the
	// release back down, spreading the traffic.
	TreeBarrier
)

func (k BarrierKind) String() string {
	if k == TreeBarrier {
		return "tree"
	}
	return "central"
}

// RetryConfig tunes the end-to-end delivery recovery that runs when the
// mesh fault model (Config.Mesh.Faults) is enabled. With faults off it
// is ignored entirely.
type RetryConfig struct {
	// Timeout is the first-attempt retransmit timeout in cycles. 0
	// derives a per-destination default of several one-way latencies
	// plus directory service slack, so a merely-queued reply rarely
	// triggers a spurious retry.
	Timeout sim.Time
	// MaxRetries bounds the retransmit attempts per message (0 selects
	// DefaultMaxRetries). Each retry doubles the timeout, capped at 64x
	// the base; a message still undelivered after the last retry is
	// abandoned (net.retry.giveup) and the liveness watchdog reports the
	// stuck transaction.
	MaxRetries int
}

// Timing holds the latency model in processor cycles, calibrated to the
// paper's §5 constants (local ≈23, 2-cluster ≈60, 3-cluster ≈80).
type Timing struct {
	Hit       sim.Time // cache hit
	Bus       sim.Time // full local bus transaction incl. memory
	Dir       sim.Time // directory controller occupancy per remote request
	InvalBus  sim.Time // bus occupancy of an invalidation at a remote cluster
	InvalSend sim.Time // directory occupancy per invalidation sent ("as fast as the network can accept them", §3.3)
	Fwd       sim.Time // cache access of a forwarded request at the owner
	Fill      sim.Time // cache fill after a reply arrives
}

// DefaultTiming returns the calibrated latency constants.
func DefaultTiming() Timing {
	return Timing{Hit: 1, Bus: 23, Dir: 8, InvalBus: 8, InvalSend: 2, Fwd: 8, Fill: 2}
}

// Config describes one simulated machine.
type Config struct {
	Procs           int // total processors
	ProcsPerCluster int // DASH prototype: 4; the paper's runs: 1
	Block           int // cache block size in bytes (paper: 16)
	Cache           cache.Config
	Scheme          SchemeFactory
	Sparse          SparseConfig
	Overflow        *OverflowDirConfig // mutually exclusive with Sparse
	Barrier         BarrierKind
	Mesh            mesh.Config // zero value -> mesh.DefaultConfig
	Timing          Timing      // zero value -> DefaultTiming
	Seed            int64

	// Retry tunes the timeout/retry delivery recovery active while
	// Mesh.Faults is enabled.
	Retry RetryConfig
	// StuckBudget, when > 0, arms the liveness watchdog: any unfinished
	// processor that makes no forward progress for StuckBudget cycles
	// aborts the run with a *StuckError carrying a full diagnostic dump
	// (and a liveness violation when the checker is on). 0 disables the
	// watchdog unless Mesh.Faults is enabled, which defaults it to
	// DefaultStuckBudget.
	StuckBudget sim.Time
	// Deadline, when > 0, bounds the run in wall-clock time: a run still
	// going after Deadline aborts with the same diagnostic dump instead
	// of hanging the caller. Checked between events only, so it never
	// perturbs simulation results.
	Deadline time.Duration

	// Metrics, when non-nil, is the registry the machine (and its mesh,
	// directories, gates and RACs) records into; a private registry is
	// created when nil, readable via Machine.MetricsSnapshot. A machine is
	// single-writer and reads its own counters back into Result, so a
	// registry must not be shared between machines.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured coherence events (request
	// issues, directory lookups, invalidation fan-outs, overflow bursts,
	// directory evictions, lock retries). nil disables tracing at the cost
	// of one pointer test per would-be event.
	Trace *obs.Tracer
	// Spans, when non-nil, receives parented transaction spans: every
	// remote memory transaction (read miss, write miss, upgrade, lock
	// round, directory-eviction recall) gets a TxID at issue, a root span
	// covering issue to completion, and child spans for each latency
	// phase (request travel, directory wait, fanout, ack gather, reply
	// travel). Enabling spans also fills the tx.lat.<class> latency
	// histograms. nil disables span tracing at the cost of one pointer
	// test per would-be transaction. Span IDs derive from the emitting
	// cluster and its private sequence.
	Spans *obs.SpanRecorder
	// SampleEvery, when > 0, samples queue depths every SampleEvery
	// cycles into the dir.queue.depth, dir.entries.live and
	// mesh.port.backlog histograms: per-cluster directory-controller
	// backlog, live directory entries, and network ejection-port backlog.
	// Sampling reads simulator state without mutating it, so results are
	// identical with sampling on or off.
	SampleEvery sim.Time
	// Live, when non-nil, receives atomically-published in-run progress
	// snapshots (cycles simulated, events fired, metrics) roughly every
	// 100ms of wall clock, plus a final sample with Done set. Runs publish
	// at window boundaries; publishing reads simulator state without
	// mutating it, so results are unchanged.
	Live *obs.LiveRun
	// Check enables the runtime coherence invariant checker: a shadow
	// oracle asserting single-writer/multiple-reader, directory coverage,
	// recall completeness, acknowledgement conservation and span tiling at
	// every protocol transition. Violations are counted in the
	// check.violation.* registry counters and reported through
	// Machine.Violations / Machine.CheckErr. Enabling the checker forces
	// the transaction-span machinery on (with a discarding sink when Spans
	// is nil) but never alters protocol decisions; disabled, its entire
	// cost is one nil test per would-be assertion.
	Check bool
	// CheckSink, when non-nil (and Check is set), additionally receives
	// every violation as a structured record — typically a
	// check.NewJSONLSink over the same writer as the trace or span sink.
	CheckSink check.Sink
	// Fault selects a deliberate protocol mutation for exercising the
	// checker and the stress harness (see the Fault constants). FaultNone
	// for every real measurement.
	Fault Fault
}

// DefaultConfig returns the paper's main experimental setup: 32 processors
// in 32 clusters, 64 KB + 256 KB caches, 16-byte blocks, full-map
// directory with the given scheme.
func DefaultConfig(scheme SchemeFactory) Config {
	return Config{
		Procs:           32,
		ProcsPerCluster: 1,
		Block:           16,
		Cache:           cache.DefaultConfig(),
		Scheme:          scheme,
		Timing:          DefaultTiming(),
	}
}

// Clusters returns the cluster count implied by the configuration.
func (c *Config) Clusters() int { return c.Procs / c.ProcsPerCluster }

// Validate checks the configuration for every error New would otherwise
// trip over, so drivers can report bad flag combinations before building
// anything.
func (c *Config) Validate() error {
	if c.Procs <= 0 || c.ProcsPerCluster <= 0 {
		return fmt.Errorf("machine: Procs and ProcsPerCluster must be positive")
	}
	if c.Procs%c.ProcsPerCluster != 0 {
		return fmt.Errorf("machine: Procs (%d) not divisible by ProcsPerCluster (%d)", c.Procs, c.ProcsPerCluster)
	}
	if c.Block <= 0 {
		return fmt.Errorf("machine: Block must be positive")
	}
	if c.Scheme == nil {
		return fmt.Errorf("machine: Scheme factory is required")
	}
	if _, err := c.Scheme(c.Clusters()); err != nil {
		// Scheme geometry (e.g. more pointers than clusters) is only
		// checkable once the machine size is known; surface it here as a
		// flag-level error instead of deep inside New.
		return fmt.Errorf("machine: %w", err)
	}
	if c.Overflow != nil && c.Sparse.Entries > 0 {
		return fmt.Errorf("machine: Sparse and Overflow directories are mutually exclusive")
	}
	if c.Overflow != nil && (c.Overflow.Ptrs <= 0 || c.Overflow.WideEntries <= 0) {
		return fmt.Errorf("machine: Overflow needs positive Ptrs and WideEntries")
	}
	if c.Sparse.Entries < 0 {
		return fmt.Errorf("machine: Sparse.Entries must not be negative")
	}
	if c.Sparse.Entries > 0 && c.Sparse.Assoc < 0 {
		return fmt.Errorf("machine: Sparse.Assoc must not be negative")
	}
	if c.Cache.Block != 0 && c.Cache.Block != c.Block {
		return fmt.Errorf("machine: cache block (%d) differs from machine block (%d)", c.Cache.Block, c.Block)
	}
	if err := c.Mesh.Faults.Validate(); err != nil {
		return err
	}
	if c.Retry.MaxRetries < 0 {
		return fmt.Errorf("machine: Retry.MaxRetries must not be negative")
	}
	if c.Cache != (cache.Config{}) {
		// Pre-check the cache geometry so a bad flag combination is an
		// error here rather than a panic inside cache.NewHierarchy.
		cc := c.Cache
		if cc.Block == 0 {
			cc.Block = c.Block
		}
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return nil
}
