package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
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

// runSharded runs cfg/w at the given shard width and returns the result
// plus the frozen metrics text.
func runSharded(t *testing.T, cfg Config, w *tango.Workload, shards int) (*Result, string) {
	t.Helper()
	cfg.Shards = shards
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := max(shards, 1); m.Shards() != want {
		t.Fatalf("shards=%d runs at width %d: %s", shards, m.Shards(), m.FallbackReason())
	}
	r, err := m.Run(w)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("shards=%d: coherence violated: %v", shards, err)
	}
	var buf bytes.Buffer
	if err := m.MetricsSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

// TestShardedWidthIndependence is the core equivalence claim of the
// sharded engine: every measurement — the full Result and every metric in
// the registry — is byte-identical at shard widths 1, 2, 4 and 8, across
// schemes, directory geometries and both barrier kinds, on a seeded
// protostress-style mix with locks and barriers.
func TestShardedWidthIndependence(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
	}
	cases := []tc{
		{"fullvec", testConfig(16, FullVec)},
		{"coarse", testConfig(16, CoarseVec2)},
		{"broadcast", testConfig(13, Broadcast)},
		{"nb-sparse", func() Config {
			c := testConfig(16, NoBroadcast)
			c.Sparse = SparseConfig{Entries: 8, Assoc: 2, Policy: sparse.LRU}
			return c
		}()},
		{"superset-overflow", func() Config {
			c := testConfig(16, SupersetX)
			c.Overflow = &OverflowDirConfig{Ptrs: 1, WideEntries: 4, Assoc: 2}
			return c
		}()},
		{"tree-barrier-ppc2", func() Config {
			c := testConfig(16, CoarseVec2)
			c.ProcsPerCluster = 2
			c.Barrier = TreeBarrier
			return c
		}()},
	}
	for i, c := range cases {
		c := c
		seed := int64(1000 + i)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.cfg.Seed = seed
			w := stressWorkload(seed, c.cfg.Procs, 120, 48, true)
			base, baseTxt := runSharded(t, c.cfg, w, 1)
			for _, shards := range []int{2, 4, 8} {
				r, txt := runSharded(t, c.cfg, w, shards)
				if !reflect.DeepEqual(base, r) {
					t.Errorf("shards=%d result differs from shards=1:\n  1: %s\n  %d: %s",
						shards, base.Summary(), shards, r.Summary())
				}
				if txt != baseTxt {
					t.Errorf("shards=%d metrics differ from shards=1", shards)
				}
			}
		})
	}
}

// TestShardedFigureWorkloadDeterminism repeats a sharded run and demands
// bit-identical results — run-to-run determinism with goroutines in the
// loop.
func TestShardedFigureWorkloadDeterminism(t *testing.T) {
	cfg := testConfig(32, CoarseVec2)
	cfg.Seed = 7
	w := stressWorkload(7, 32, 100, 64, true)
	r1, t1 := runSharded(t, cfg, w, 4)
	r2, t2 := runSharded(t, cfg, w, 4)
	if !reflect.DeepEqual(r1, r2) || t1 != t2 {
		t.Fatal("sharded run is not deterministic across repeats")
	}
}

// TestShardedSingleCluster exercises the degenerate shapes: one cluster
// (no cross-shard traffic exists at all) and more shards than clusters
// (the width clamps to the cluster count).
func TestShardedSingleCluster(t *testing.T) {
	cfg := testConfig(1, FullVec)
	cfg.Shards = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want clamp to 1", got)
	}
	var b tango.Builder
	b.Read(addr(0))
	b.Write(addr(0))
	if _, err := m.Run(wl(b.Refs())); err != nil {
		t.Fatal(err)
	}
}

// TestClampToWidthOne: every configuration that shares mutable state
// across clusters — the checker, mesh port contention, a protocol fault and
// network fault injection — must run at width 1 on the same core when a
// wider run is requested, with a reason naming the flag. Observability
// features, which the core shards, must not clamp.
func TestClampToWidthOne(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		cfg := testConfig(4, FullVec)
		cfg.Shards = 2
		mut(&cfg)
		return cfg
	}
	clamped := []struct {
		name, flag string
		cfg        Config
	}{
		{"checker", "(-check)", mk(func(c *Config) { c.Check = true })},
		{"porttime", "PortTime", mk(func(c *Config) { c.Mesh.PortTime = 2 })},
		{"fault", "(-fault)", mk(func(c *Config) { c.Fault = FaultDropInval })},
		{"faults", "(-faults)", mk(func(c *Config) { c.Mesh.Faults = mesh.FaultConfig{Drop: 0.05, Dup: 0.05} })},
	}
	for _, c := range clamped {
		m, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Shards() != 1 {
			t.Errorf("%s: running with %d shards, want a clamp to 1", c.name, m.Shards())
		}
		reason := m.FallbackReason()
		if !strings.Contains(reason, c.flag) {
			t.Errorf("%s: reason %q does not name %s", c.name, reason, c.flag)
		}
		if strings.Contains(reason, "-shards") {
			t.Errorf("%s: reason %q gives -shards advice", c.name, reason)
		}
		if _, err := m.Run(stressWorkload(5, c.cfg.Procs, 80, 16, true)); err != nil {
			t.Errorf("%s: clamped run failed: %v", c.name, err)
		}
	}
	// Observability configurations shard (the whole point of the per-shard
	// recording cells), as does a plain config.
	sharded := map[string]Config{
		"clean":    mk(func(*Config) {}),
		"trace":    mk(func(c *Config) { c.Trace = obs.NewTracer(obs.Discard, 0) }),
		"spans":    mk(func(c *Config) { c.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0) }),
		"sampling": mk(func(c *Config) { c.SampleEvery = 64 }),
		"metrics":  mk(func(c *Config) { c.Metrics = obs.NewRegistry() }),
	}
	for name, cfg := range sharded {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Shards() != 2 || m.FallbackReason() != "" {
			t.Errorf("%s: Shards()=%d reason=%q, want a 2-shard run", name, m.Shards(), m.FallbackReason())
		}
	}
}

// TestZeroShardsIsWidthOne: the zero Config.Shards is the default width 1,
// with nothing to report, and runs exactly like an explicit width 1.
func TestZeroShardsIsWidthOne(t *testing.T) {
	cfg := testConfig(8, CoarseVec2)
	cfg.Seed = 31
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 1 || m.FallbackReason() != "" {
		t.Fatalf("zero Shards: Shards()=%d reason=%q, want width 1 and no reason", m.Shards(), m.FallbackReason())
	}
	w := stressWorkload(31, cfg.Procs, 100, 32, true)
	r0, txt0 := runSharded(t, cfg, w, 0)
	r1, txt1 := runSharded(t, cfg, w, 1)
	if !reflect.DeepEqual(r0, r1) || txt0 != txt1 {
		t.Fatal("zero Shards differs from an explicit width 1")
	}
}

// TestDegenerateTiming: with InvalBus and Mesh.Base both zero an
// invalidation acknowledgement can tie with — or, ordered by key, fire
// before — the ownership reply carrying its count. The held-ack path must
// keep the run clean (no negative ack count) and width-independent.
func TestDegenerateTiming(t *testing.T) {
	cfg := testConfig(8, Broadcast)
	cfg.Seed = 77
	cfg.Timing.InvalBus = 0
	cfg.Mesh = mesh.Config{Base: 0, PerHop: 2}
	w := stressWorkload(77, cfg.Procs, 150, 12, true)
	base, baseTxt := runSharded(t, cfg, w, 1)
	for _, shards := range []int{2, 4} {
		r, txt := runSharded(t, cfg, w, shards)
		if !reflect.DeepEqual(base, r) || txt != baseTxt {
			t.Errorf("degenerate timing: shards=%d differs from width 1", shards)
		}
	}
	cfg.Check = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckErr(); err != nil {
		t.Fatalf("degenerate timing under the checker: %v", err)
	}
	if !reflect.DeepEqual(base, r) {
		t.Errorf("degenerate timing: the checker changed the result:\n  %s\n  %s", base.Summary(), r.Summary())
	}
}

// TestShardedWatchdog: the deterministic watchdog must abort a wedged run
// (a processor waiting on a lock that is never released) with a
// diagnostic dump at a wide width, as it does at width 1.
func TestShardedWatchdog(t *testing.T) {
	cfg := testConfig(2, FullVec)
	cfg.Shards = 2
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
		t.Fatalf("wedged sharded run returned %v, want *StuckError", err)
	}
	if se.Dump == "" {
		t.Fatal("stuck error carries no diagnostic dump")
	}
}

// TestSamplingStopsOnDeadlock: a workload that can never finish (a lock
// that is never released) with queue sampling on and no watchdog budget
// must end with the deadlock error rather than sample forever — the core
// stops once only sampling chains are pending — at width 1 and wider.
func TestSamplingStopsOnDeadlock(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := testConfig(2, FullVec)
		cfg.Shards = shards
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
			t.Fatalf("shards=%d: wedged sampled run returned %v, want the deadlock error", shards, err)
		}
	}
}

// BenchmarkMachineParallel compares the core's throughput across widths
// on a 64-processor machine — the width-scaling probe.
func BenchmarkMachineParallel(b *testing.B) {
	const procs = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := testConfig(procs, CoarseVec2)
			cfg.Shards = shards
			w := stressWorkload(11, procs, 2000, 512, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := m.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.ExecTime), "cycles")
			}
		})
	}
}
