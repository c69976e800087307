package machine

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

// stressWorkload mirrors cmd/protostress's adversarial mix: reads, writes,
// lock-protected writes and a closing barrier over a small block pool, all
// drawn from one seeded rng so every run of a seed is the same workload.
func stressWorkload(seed int64, procs, refs, blocks int, sync bool) *tango.Workload {
	rng := rand.New(rand.NewSource(seed))
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
	return &tango.Workload{Name: "stress", Streams: streams}
}

// runChecked runs cfg/w, requires a coherent quiescent state, and returns
// the result.
func runChecked(t *testing.T, cfg Config, w *tango.Workload) *Result {
	t.Helper()
	m, r := mustRun(t, cfg, w)
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
	return r
}

// runObs runs cfg/w with every observability feature attached — event
// tracing, span tracing, queue-depth sampling, and an external metrics
// registry — and returns the result and the full trace and span streams.
func runObs(t *testing.T, cfg Config, w *tango.Workload) (*Result, []obs.Event, []obs.Span) {
	t.Helper()
	ms := &obs.MemSink{}
	sp := &obs.MemSpanSink{}
	cfg.Trace = obs.NewTracer(ms, 0)
	cfg.Spans = obs.NewSpanRecorder(sp, 0)
	cfg.SampleEvery = 64
	cfg.Metrics = obs.NewRegistry()
	m, r := mustRun(t, cfg, w)
	if err := m.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushSpans(); err != nil {
		t.Fatal(err)
	}
	// The external registry must carry the same view the machine reports,
	// per-cluster gauges folded in.
	var own, ext bytes.Buffer
	if err := m.MetricsSnapshot().WriteText(&own); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Metrics.Snapshot().WriteText(&ext); err != nil {
		t.Fatal(err)
	}
	if ext.String() != own.String() {
		t.Fatal("external registry diverges from MetricsSnapshot")
	}
	return r, ms.Events, sp.Spans
}

// TestSingleCluster exercises the degenerate one-cluster shape, where no
// cross-cluster traffic exists and the window stride falls back to one
// cycle.
func TestSingleCluster(t *testing.T) {
	var b tango.Builder
	b.Read(addr(0))
	b.Write(addr(0))
	r := runChecked(t, testConfig(1, FullVec), wl(b.Refs()))
	if r.Msgs.Total() != 0 {
		t.Fatalf("one-cluster run sent %d messages", r.Msgs.Total())
	}
}

// TestDegenerateTiming: with InvalBus and Mesh.Base both zero an
// invalidation acknowledgement can tie with — or, ordered by key, fire
// before — the ownership reply carrying its count. The held-ack path must
// keep the run clean (no negative ack count), and the checker must find
// nothing and leave the result unchanged.
func TestDegenerateTiming(t *testing.T) {
	cfg := testConfig(8, Broadcast)
	cfg.Seed = 77
	cfg.Timing.InvalBus = 0
	cfg.Mesh = mesh.Config{Base: 0, PerHop: 2}
	w := stressWorkload(77, cfg.Procs, 150, 12, true)
	base := runChecked(t, cfg, w)
	cfg.Check = true
	m, r := mustRun(t, cfg, w)
	if err := m.CheckErr(); err != nil {
		t.Fatalf("degenerate timing under the checker: %v", err)
	}
	if !reflect.DeepEqual(base, r) {
		t.Errorf("degenerate timing: the checker changed the result:\n  %s\n  %s", base.Summary(), r.Summary())
	}
}

// TestLockWedgeWatchdog: with the watchdog armed, a wedged run (a
// processor waiting on a lock that is never released) must end in a
// *StuckError naming the stuck processor, with a diagnostic dump.
func TestLockWedgeWatchdog(t *testing.T) {
	cfg := testConfig(2, FullVec)
	cfg.StuckBudget = 1 << 14
	var b0, b1 tango.Builder
	b0.Lock(addr(100))
	// proc 0 never unlocks; proc 1 waits forever.
	b1.Lock(addr(100))
	b1.Unlock(addr(100))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(wl(b0.Refs(), b1.Refs()))
	se, ok := err.(*StuckError)
	if !ok {
		t.Fatalf("wedged run returned %v, want *StuckError", err)
	}
	if !strings.Contains(se.Reason, "proc 1 unfinished") {
		t.Errorf("reason %q does not blame proc 1", se.Reason)
	}
	if !strings.Contains(se.Dump, "proc 1 (cluster 1)") {
		t.Errorf("dump does not describe proc 1:\n%s", se.Dump)
	}
}

// TestSamplingStopsOnDeadlock: a workload that can never finish (a lock
// that is never released) with queue sampling on and no watchdog budget
// must end with the deadlock error rather than sample forever — the loop
// stops once only the sampling chain is pending.
func TestSamplingStopsOnDeadlock(t *testing.T) {
	cfg := testConfig(2, FullVec)
	cfg.SampleEvery = 16
	var b0, b1 tango.Builder
	b0.Lock(addr(100))
	b1.Lock(addr(100))
	b1.Unlock(addr(100))
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(wl(b0.Refs(), b1.Refs()))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("wedged sampled run returned %v, want the deadlock error", err)
	}
}

// TestObsNoPerturbation: enabling every observability feature must not
// change what a run simulates — only what it records — and what it
// records must be a non-empty trace and a well-formed span forest.
func TestObsNoPerturbation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fullvec", testConfig(16, FullVec)},
		{"coarse-sparse", func() Config {
			c := testConfig(16, CoarseVec2)
			c.Sparse = SparseConfig{Entries: 8, Assoc: 2}
			return c
		}()},
	}
	for i, c := range cases {
		seed := int64(4000 + i)
		c.cfg.Seed = seed
		w := stressWorkload(seed, c.cfg.Procs, 100, 40, true)
		bare := runChecked(t, c.cfg, w)
		obsOn, ev, sp := runObs(t, c.cfg, w)
		if !reflect.DeepEqual(bare, obsOn) {
			t.Errorf("%s: observability perturbed the run:\n  bare: %s\n  obs:  %s",
				c.name, bare.Summary(), obsOn.Summary())
		}
		if len(ev) == 0 || len(sp) == 0 {
			t.Fatalf("%s: run emitted %d events and %d spans", c.name, len(ev), len(sp))
		}
		verifySpanTree(t, sp)
	}
}

// TestLiveSnapshots: a run with a live slot attached publishes a final
// Done sample carrying the run's progress and metrics.
func TestLiveSnapshots(t *testing.T) {
	cfg := testConfig(16, FullVec)
	cfg.Seed = 4200
	cfg.Live = obs.NewLive().Run("t/live")
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(stressWorkload(4200, cfg.Procs, 60, 40, true))
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Live.Latest()
	if s == nil || !s.Done {
		t.Fatalf("no final Done sample (got %+v)", s)
	}
	if s.Cycles < uint64(r.ExecTime) || s.Events == 0 {
		t.Fatalf("final sample at cycle %d after %d events, run ended at %d", s.Cycles, s.Events, r.ExecTime)
	}
	if got, want := s.Metrics.Counter("msg.readreq"), m.MetricsSnapshot().Counter("msg.readreq"); got == 0 || got != want {
		t.Fatalf("final sample carries msg.readreq %d, machine %d", got, want)
	}
}
