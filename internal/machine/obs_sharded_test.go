package machine

import (
	"bytes"
	"reflect"
	"testing"

	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

// runObs runs cfg/w at the given shard width with every observability
// feature attached — event tracing, span tracing, queue-depth sampling,
// and an external metrics registry — and returns the result, the metrics
// text, and the full trace and span streams.
func runObs(t *testing.T, cfg Config, w *tango.Workload, shards int) (*Result, string, []obs.Event, []obs.Span) {
	t.Helper()
	ms := &obs.MemSink{}
	sp := &obs.MemSpanSink{}
	cfg.Shards = shards
	cfg.Trace = obs.NewTracer(ms, 0)
	cfg.Spans = obs.NewSpanRecorder(sp, 0)
	cfg.SampleEvery = 64
	cfg.Metrics = obs.NewRegistry()
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
	if err := m.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushSpans(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.MetricsSnapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// The external registry must carry the same merged view the machine
	// reports — that is what makes Config.Metrics usable under sharding.
	var ext bytes.Buffer
	if err := cfg.Metrics.Snapshot().WriteText(&ext); err != nil {
		t.Fatal(err)
	}
	if ext.String() != buf.String() {
		t.Fatalf("shards=%d: external registry diverges from MetricsSnapshot", shards)
	}
	return r, buf.String(), ms.Events, sp.Spans
}

// TestShardedObsWidthIndependence is the tentpole claim of shard-safe
// observability: with tracing, spans, sampling and an external registry
// all enabled, every byte of observability output — the trace event
// stream, the span stream (IDs included), the metrics text — and the
// simulation Result itself are identical at shard widths 1, 2 and 4.
func TestShardedObsWidthIndependence(t *testing.T) {
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
		c := c
		seed := int64(4000 + i)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.cfg.Seed = seed
			w := stressWorkload(seed, c.cfg.Procs, 100, 40, true)
			base, baseTxt, baseEv, baseSp := runObs(t, c.cfg, w, 1)
			if len(baseEv) == 0 || len(baseSp) == 0 {
				t.Fatal("width-1 run emitted no events or no spans")
			}
			verifySpanTree(t, baseSp)
			for _, shards := range []int{2, 4} {
				r, txt, ev, sp := runObs(t, c.cfg, w, shards)
				if !reflect.DeepEqual(base, r) {
					t.Errorf("shards=%d result differs from shards=1", shards)
				}
				if txt != baseTxt {
					t.Errorf("shards=%d metrics differ from shards=1", shards)
				}
				if !reflect.DeepEqual(baseEv, ev) {
					t.Errorf("shards=%d trace stream differs from shards=1 (%d vs %d events)",
						shards, len(ev), len(baseEv))
				}
				if !reflect.DeepEqual(baseSp, sp) {
					t.Errorf("shards=%d span stream differs from shards=1 (%d vs %d spans)",
						shards, len(sp), len(baseSp))
				}
			}
		})
	}
}

// TestShardedObsNoPerturbation: enabling every observability feature must
// not change what a sharded run simulates — only what it records.
func TestShardedObsNoPerturbation(t *testing.T) {
	cfg := testConfig(16, FullVec)
	cfg.Seed = 4100
	w := stressWorkload(4100, cfg.Procs, 100, 40, true)
	bare, _ := runSharded(t, cfg, w, 4)
	obsOn, _, _, _ := runObs(t, cfg, w, 4)
	if !reflect.DeepEqual(bare, obsOn) {
		t.Fatalf("observability perturbed the sharded run:\n  bare: %s\n  obs:  %s",
			bare.Summary(), obsOn.Summary())
	}
}

// TestLiveSnapshots: a run with a live slot attached publishes a final
// Done sample carrying the run's metrics, at the default width and a wide
// one; the sample reports one wheel time per shard.
func TestLiveSnapshots(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := testConfig(16, FullVec)
		cfg.Seed = 4200
		cfg.Shards = shards
		live := obs.NewLive()
		cfg.Live = live.Run("t/live")
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(stressWorkload(4200, cfg.Procs, 60, 40, true)); err != nil {
			t.Fatal(err)
		}
		s := cfg.Live.Latest()
		if s == nil || !s.Done {
			t.Fatalf("shards=%d: no final Done sample (got %+v)", shards, s)
		}
		if s.Cycles == 0 || s.Events == 0 {
			t.Fatalf("shards=%d: empty progress in final sample: %+v", shards, s)
		}
		if want := max(cfg.Shards, 1); len(s.Shards) != want {
			t.Fatalf("shards=%d: sample reports %d shard times", shards, len(s.Shards))
		}
		if s.Metrics.Counter("msg.readreq") == 0 {
			t.Fatalf("shards=%d: final sample carries no metrics", shards)
		}
	}
}
