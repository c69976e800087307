package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
	"dircoh/internal/tango"
)

// stressStreams builds a seeded adversarial workload: short streams of
// reads, writes, locks and barriers over a small block pool, maximizing
// invalidations, recalls and gate contention.
func stressStreams(rng *rand.Rand, procs, refs, blocks int, sync bool) [][]tango.Ref {
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var b tango.Builder
		for i := 0; i < refs; i++ {
			blk := int64(rng.Intn(blocks))
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				b.Write(addr(blk))
			case 4:
				if sync {
					lock := addr(int64(blocks) + int64(rng.Intn(4)))
					b.Lock(lock)
					b.Write(addr(blk))
					b.Unlock(lock)
				} else {
					b.Write(addr(blk))
				}
			default:
				b.Read(addr(blk))
			}
		}
		if sync {
			b.Barrier(addr(int64(blocks) + 8))
		}
		streams[p] = b.Refs()
	}
	return streams
}

// checkedRun runs cfg with the invariant checker on and returns the machine.
func checkedRun(t *testing.T, cfg Config, w *tango.Workload) *Machine {
	t.Helper()
	cfg.Check = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckerCleanRuns asserts the oracle reports zero violations across
// the scheme/directory/clustering matrix on a correct protocol — the
// soundness half of the checker's contract.
func TestCheckerCleanRuns(t *testing.T) {
	schemes := []SchemeFactory{FullVec, CoarseVec2, Broadcast, NoBroadcast, SupersetX}
	// The direct-mapped geometry matters: single-way sets thrash hardest,
	// so an entry can be reclaimed, re-allocated by a replayed request and
	// reclaimed again while the first recall is still in flight (the
	// overlapping-recall case checkRecallClean must exempt).
	geoms := []SparseConfig{
		{},
		{Entries: 4, Assoc: 2, Policy: sparse.LRU},
		{Entries: 16, Assoc: 2, Policy: sparse.LRU},
		{Entries: 16, Assoc: 1, Policy: sparse.LRU},
	}
	for si, schemeF := range schemes {
		for gi, geom := range geoms {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(seed*131 + int64(si)))
				const procs = 6
				streams := stressStreams(rng, procs, 300, 40, true)
				cfg := testConfig(procs, schemeF)
				cfg.Seed = seed
				cfg.Sparse = geom
				for _, ppc := range []int{1, 2} {
					ccfg := cfg
					ccfg.ProcsPerCluster = ppc
					m := checkedRun(t, ccfg, wl(streams...))
					if err := m.CheckErr(); err != nil {
						t.Fatalf("scheme %d geom %d seed=%d ppc=%d: %v\nall: %v",
							si, gi, seed, ppc, err, m.Violations())
					}
					if err := m.CheckCoherence(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestCheckerCleanRecallRace pins the overlapping-recall regression found
// by the checker itself: on LU with a direct-mapped 16-entry sparse
// directory, a hot set reclaims a block's entry mid-transaction, a read
// replayed off the block's gate re-allocates it and installs a fresh copy,
// and the set reclaims the fresh entry again before the first recall's
// acknowledgements drain. The first recall to complete must attribute the
// surviving copy to the covering entry or the still-pending second recall
// instead of flagging it.
func TestCheckerCleanRecallRace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second application run")
	}
	build, err := apps.Lookup("LU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(CoarseVec2)
	cfg.Procs = 8
	cfg.ProcsPerCluster = 1
	cfg.Cache = cache.Config{L1Size: 64 << 10, L1Assoc: 1, L2Size: 256 << 10, L2Assoc: 1, Block: 16}
	cfg.Seed = 1
	cfg.Sparse = SparseConfig{Entries: 16, Assoc: 1, Policy: sparse.LRU}
	m := checkedRun(t, cfg, build(8))
	if err := m.CheckErr(); err != nil {
		t.Fatalf("recall race regression: %v\nall: %v", err, m.Violations())
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerCleanOverflowDir covers the two-level overflow directory.
func TestCheckerCleanOverflowDir(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const procs = 6
	streams := stressStreams(rng, procs, 400, 32, false)
	cfg := testConfig(procs, FullVec)
	cfg.Overflow = &OverflowDirConfig{Ptrs: 1, WideEntries: 4, Assoc: 2}
	m := checkedRun(t, cfg, wl(streams...))
	if err := m.CheckErr(); err != nil {
		t.Fatalf("overflow dir: %v", err)
	}
}

// TestCheckerResultsUnchanged asserts enabling the checker never changes
// what the simulation computes, only observes it.
func TestCheckerResultsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := stressStreams(rng, 4, 300, 24, true)
	cfg := testConfig(4, CoarseVec2)
	cfg.Sparse = SparseConfig{Entries: 8, Assoc: 2, Policy: sparse.LRU}
	_, base := mustRun(t, cfg, wl(streams...))
	ccfg := cfg
	ccfg.Check = true
	m, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(wl(streams...))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckErr(); err != nil {
		t.Fatal(err)
	}
	if r.ExecTime != base.ExecTime || r.Msgs != base.Msgs {
		t.Fatalf("checker changed results: exec %d vs %d, msgs %v vs %v",
			r.ExecTime, base.ExecTime, r.Msgs, base.Msgs)
	}
}

// TestCheckerCatchesDroppedInval seeds the drop-inval fault and requires
// the oracle to flag the stale copy — the completeness half of the
// contract. CheckCoherence's quiescence sweep must agree.
func TestCheckerCatchesDroppedInval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const procs = 4
	streams := stressStreams(rng, procs, 200, 12, false)
	cfg := testConfig(procs, FullVec)
	cfg.Fault = FaultDropInval
	m := checkedRun(t, cfg, wl(streams...))
	if m.ViolationCount() == 0 {
		t.Fatal("dropped invalidation went undetected")
	}
	var sawState bool
	for _, v := range m.Violations() {
		if v.Rule == check.RuleSingleWriter || v.Rule == check.RuleCoverage {
			sawState = true
		}
	}
	if !sawState {
		t.Fatalf("expected a single-writer or coverage violation, got %v", m.Violations())
	}
	// Note CheckCoherence (the quiescence sweep) may or may not still see
	// the stale copy: a later invalidation of the same block can clean it
	// up before the run ends. Catching the transient window is exactly
	// what the runtime oracle adds.
}

// TestCheckerCatchesSkippedRecall seeds the skip-recall fault on a tiny
// sparse directory and requires a recall violation.
func TestCheckerCatchesSkippedRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const procs = 6
	streams := stressStreams(rng, procs, 400, 48, false)
	cfg := testConfig(procs, FullVec)
	cfg.Sparse = SparseConfig{Entries: 4, Assoc: 1, Policy: sparse.LRU}
	cfg.Fault = FaultSkipRecallInval
	m := checkedRun(t, cfg, wl(streams...))
	var sawRecall bool
	for _, v := range m.Violations() {
		if v.Rule == check.RuleRecall {
			sawRecall = true
		}
	}
	if !sawRecall {
		t.Fatalf("skipped recall invalidation went undetected (violations: %v)", m.Violations())
	}
}

// TestCheckerViolationSink verifies violations reach a configured sink as
// JSONL records.
func TestCheckerViolationSink(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	streams := stressStreams(rng, 4, 200, 12, false)
	cfg := testConfig(4, FullVec)
	cfg.Fault = FaultDropInval
	sink := &check.MemSink{}
	cfg.CheckSink = sink
	m := checkedRun(t, cfg, wl(streams...))
	if got, want := uint64(len(sink.Violations)), m.ViolationCount(); got != want {
		t.Fatalf("sink saw %d violations, recorder counted %d", got, want)
	}
}

// TestCycleDeltaClamps is the regression test for the uint64 underflow on
// the latency paths: a reversed interval must clamp to zero and be
// reported, not wrap to ~2^64 and poison the histogram.
func TestCycleDeltaClamps(t *testing.T) {
	cfg := testConfig(1, FullVec)
	cfg.Check = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.cycleDelta(5, 5, "tx.lat.read"); got != 0 {
		t.Fatalf("zero-length phase: got %d, want 0", got)
	}
	if m.ViolationCount() != 0 {
		t.Fatal("zero-length phase must not be a violation")
	}
	if got := m.cycleDelta(4, 9, "tx.lat.read"); got != 0 {
		t.Fatalf("reversed interval: got %d, want 0 (underflow!)", got)
	}
	if m.ViolationCount() != 1 {
		t.Fatalf("reversed interval not reported: %v", m.Violations())
	}
	v := m.Violations()[0]
	if v.Rule != check.RuleLatency || !strings.Contains(v.Detail, "tx.lat.read") {
		t.Fatalf("violation should name the counter pair: %+v", v)
	}
	// Without the checker the clamp still applies (the bugfix proper).
	m2, err := New(testConfig(1, FullVec))
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.cycleDelta(4, 9, "read latency"); got != 0 {
		t.Fatalf("unchecked clamp: got %d, want 0", got)
	}
}

// TestCheckerForcesSpanMachinery: with Check on and Spans nil the machine
// builds no span ring but still runs the transaction machinery and hands
// every span to the checker's tiling verifier. A transaction opened by
// hand that emits one child and no root is reported as orphaned, and a
// clean run fills the tx.lat.* histograms exactly as a span-recording run
// does.
func TestCheckerForcesSpanMachinery(t *testing.T) {
	cfg := testConfig(4, FullVec)
	cfg.Check = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.spans != nil {
		t.Fatal("a Check-only machine built a span ring")
	}
	c := m.clusters[0]
	tx := m.txStart(obs.TxRead, c, 3)
	if tx == nil {
		t.Fatal("the checker did not turn the transaction machinery on")
	}
	m.txPhase(c, tx, obs.PhReqTravel)
	if _, err := m.Run(wl(nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	orphaned := false
	for _, v := range m.Violations() {
		orphaned = orphaned || v.Rule == check.RuleSpan && strings.Contains(v.Detail, "orphaned transaction")
	}
	if !orphaned {
		t.Fatalf("the tiling verifier did not report the orphaned transaction (violations: %v)", m.Violations())
	}

	streams := stressStreams(rand.New(rand.NewSource(2)), 4, 150, 16, true)
	checked := checkedRun(t, cfg, wl(streams...))
	if err := checked.CheckErr(); err != nil {
		t.Fatal(err)
	}
	cfg.Spans = obs.NewSpanRecorder(obs.Discard, 0)
	recorded := checkedRun(t, cfg, wl(streams...))
	got, want := checked.MetricsSnapshot().Hists, recorded.MetricsSnapshot().Hists
	for _, name := range txLatName {
		if h, ok := got[name]; !ok || !reflect.DeepEqual(h, want[name]) {
			t.Errorf("%s: Check-only run %+v (registered %v), span-recording run %+v", name, h, ok, want[name])
		}
	}
	if got[txLatName[obs.TxWrite]].N == 0 {
		t.Error("the stress run recorded no write transaction")
	}
}

// TestCheckerSpanTamper feeds the span verifier a corrupted span directly
// and expects a tiling violation — guarding the verifier itself.
func TestCheckerSpanTamper(t *testing.T) {
	r := check.NewRecorder(nil, nil, 1)
	r.Span(&obs.Span{Tx: 1, ID: 1, Parent: 0, Class: obs.TxRead, Phase: obs.PhTotal, Start: 10, End: 5}, new(check.TxSpans))
	if r.Count() == 0 {
		t.Fatal("end-before-start span not flagged")
	}
}
