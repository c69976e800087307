package machine

import (
	"sort"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

// runSpans runs w on cfg with span recording into a memory sink and
// returns the machine, result and collected spans.
func runSpans(t *testing.T, cfg Config, w *tango.Workload) (*Machine, *Result, []obs.Span) {
	t.Helper()
	sink := &obs.MemSink{}
	cfg.Spans = obs.NewSpanRecorder(sink, 64)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushSpans(); err != nil {
		t.Fatal(err)
	}
	return m, r, sink.Spans
}

// verifySpanTree checks the structural invariants tracelens relies on:
// every span parents to a root, roots have ID == Tx and Phase total, and
// each root's synchronous children tile [Start, End] exactly. It returns
// the per-class root counts.
func verifySpanTree(t *testing.T, spans []obs.Span) [obs.NumTxClasses]int {
	t.Helper()
	roots := make(map[uint64]obs.Span)
	children := make(map[uint64][]obs.Span)
	for _, s := range spans {
		if s.Parent == 0 {
			if s.ID != s.Tx || s.Phase != obs.PhTotal {
				t.Fatalf("malformed root span %+v", s)
			}
			if _, dup := roots[s.ID]; dup {
				t.Fatalf("duplicate root %d", s.ID)
			}
			roots[s.ID] = s
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var counts [obs.NumTxClasses]int
	for id, root := range roots {
		counts[root.Class]++
		sync := []obs.Span{}
		for _, c := range children[id] {
			if c.Tx != root.Tx || c.Class != root.Class {
				t.Fatalf("child %+v disagrees with root %+v", c, root)
			}
			if c.Phase.Async(root.Class) {
				if c.Start < root.Start {
					t.Fatalf("async child %+v starts before root %+v", c, root)
				}
				continue
			}
			sync = append(sync, c)
		}
		sort.Slice(sync, func(i, j int) bool { return sync[i].Start < sync[j].Start })
		at := root.Start
		for _, c := range sync {
			if c.Start != at {
				t.Fatalf("tx %d: phase %s starts at %d, want %d (root %+v)",
					id, c.Phase, c.Start, at, root)
			}
			at = c.End
		}
		if at != root.End {
			t.Fatalf("tx %d: synchronous phases end at %d, root ends at %d", id, at, root.End)
		}
	}
	for parent := range children {
		if _, ok := roots[parent]; !ok {
			t.Fatalf("orphan spans: parent %d has no root", parent)
		}
	}
	return counts
}

// TestSpanTreeLU runs the golden LU workload with spans enabled and checks
// the emitted tree is complete: no orphans, and the synchronous phase
// spans of every transaction partition its root exactly.
func TestSpanTreeLU(t *testing.T) {
	w := apps.LU(apps.LUConfig{Procs: 4, N: 16})
	m, _, spans := runSpans(t, testConfig(4, CoarseVec2), w)
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	counts := verifySpanTree(t, spans)
	if counts[obs.TxRead] == 0 || counts[obs.TxWrite]+counts[obs.TxUpgrade] == 0 {
		t.Fatalf("expected read and write/upgrade transactions, got %v", counts)
	}
	// The per-class latency histograms must count exactly the roots.
	snap := m.MetricsSnapshot()
	for c := 0; c < obs.NumTxClasses; c++ {
		h, ok := snap.Hists["tx.lat."+obs.TxClass(c).String()]
		if !ok {
			t.Fatalf("missing tx.lat.%s histogram", obs.TxClass(c))
		}
		if int(h.N) != counts[c] {
			t.Fatalf("tx.lat.%s count %d, want %d roots", obs.TxClass(c), h.N, counts[c])
		}
	}
}

// TestSpanLockRounds drives a contended remote lock and checks lock-round
// transactions are opened and closed (grant or wake, never leaked).
func TestSpanLockRounds(t *testing.T) {
	var p0, p1 tango.Builder
	lock := addr(0) // homed at cluster 0
	for i := 0; i < 4; i++ {
		p1.Lock(lock)
		p1.Write(addr(100))
		p1.Unlock(lock)
	}
	p0.Lock(lock)
	p0.Write(addr(100))
	p0.Unlock(lock)
	m, _, spans := runSpans(t, testConfig(2, FullVec), wl(p0.Refs(), p1.Refs()))
	counts := verifySpanTree(t, spans)
	if counts[obs.TxLock] == 0 {
		t.Fatalf("expected lock transactions, got %v", counts)
	}
	leaked := 0
	for _, p := range m.procs {
		if p.lockTx != nil {
			leaked++
		}
	}
	if leaked != 0 {
		t.Fatalf("%d lock transactions leaked past the run", leaked)
	}
}

// TestSpanEvictRecall forces sparse-directory replacements and checks the
// recall transactions: class evict, nonzero fan-out, and the ack.gather
// child tiling the root (for evictions it IS the critical path).
func TestSpanEvictRecall(t *testing.T) {
	cfg := testConfig(4, FullVec)
	cfg.Sparse = SparseConfig{Entries: 4, Assoc: 1}
	streams := make([][]tango.Ref, 4)
	for p := range streams {
		var b tango.Builder
		for blk := int64(0); blk < 32; blk++ {
			b.Read(addr(blk))
		}
		streams[p] = b.Refs()
	}
	_, r, spans := runSpans(t, cfg, wl(streams...))
	if r.Replacements == 0 {
		t.Fatal("workload produced no sparse replacements")
	}
	counts := verifySpanTree(t, spans)
	if counts[obs.TxEvict] == 0 {
		t.Fatalf("expected evict transactions, got %v", counts)
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Class == obs.TxEvict && s.N == 0 {
			t.Fatalf("evict root with zero fan-out: %+v", s)
		}
	}
}

// TestSpansDoNotPerturbSimulation compares a run with spans and queue
// sampling enabled against a bare run: simulation results must be
// identical, cycle for cycle and message for message.
func TestSpansDoNotPerturbSimulation(t *testing.T) {
	w := apps.LU(apps.LUConfig{Procs: 4, N: 16})
	_, bare := mustRun(t, testConfig(4, CoarseVec2), w)
	cfg := testConfig(4, CoarseVec2)
	cfg.SampleEvery = 64
	_, instrumented, _ := runSpans(t, cfg, w)
	if bare.ExecTime != instrumented.ExecTime {
		t.Fatalf("ExecTime changed: bare %d, instrumented %d", bare.ExecTime, instrumented.ExecTime)
	}
	if bare.Msgs != instrumented.Msgs {
		t.Fatalf("message counts changed: bare %+v, instrumented %+v", bare.Msgs, instrumented.Msgs)
	}
}

// TestQueueSampler checks SampleEvery fills the depth histograms.
func TestQueueSampler(t *testing.T) {
	w := apps.LU(apps.LUConfig{Procs: 4, N: 16})
	cfg := testConfig(4, CoarseVec2)
	cfg.SampleEvery = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	snap := m.MetricsSnapshot()
	for _, name := range []string{"dir.queue.depth", "dir.entries.live", "mesh.port.backlog"} {
		h, ok := snap.Hists[name]
		if !ok || h.N == 0 {
			t.Fatalf("sampler histogram %s empty (present=%v)", name, ok)
		}
	}
	// Sampler histograms must not exist when sampling is off, so default
	// metrics output is unchanged.
	m2, _ := mustRun(t, testConfig(4, CoarseVec2), w)
	if _, ok := m2.MetricsSnapshot().Hists["dir.queue.depth"]; ok {
		t.Fatal("dir.queue.depth registered with sampling disabled")
	}
}
