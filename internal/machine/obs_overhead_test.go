package machine

import (
	"math/rand"
	"testing"
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

// overheadWorkload is the mixed random workload the overhead measurements
// run: enough references that one run takes tens of milliseconds, so the
// timing ratio is meaningful.
func overheadWorkload() *tango.Workload {
	const procs = 16
	const refsPerProc = 4000
	rng := rand.New(rand.NewSource(7))
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var bl tango.Builder
		for i := 0; i < refsPerProc; i++ {
			blk := int64(rng.Intn(512))
			if rng.Intn(4) == 0 {
				bl.Write(addr(blk))
			} else {
				bl.Read(addr(blk))
			}
		}
		streams[p] = bl.Refs()
	}
	return wl(streams...)
}

// TestTraceOverheadDisabled guards the observability layer's zero-cost
// claim: simulating with event tracing AND span recording enabled on the
// discard sinks must stay
// within 25% of the nil-tracer run (the acceptance budget is 2% on the
// long benchmarks; the slack here absorbs timer noise on a short run).
// Runs are interleaved and the minimum of several rounds is compared, so
// one scheduling hiccup cannot fail the test.
func TestTraceOverheadDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	w := overheadWorkload()
	run := func(tr *obs.Tracer, sp *obs.SpanRecorder) time.Duration {
		cfg := testConfig(16, CoarseVec2)
		cfg.Trace = tr
		cfg.Spans = sp
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := m.Run(w); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(nil, nil) // warm up caches and the allocator

	minOff := time.Duration(1<<63 - 1)
	minOn := minOff
	for round := 0; round < 5; round++ {
		if d := run(nil, nil); d < minOff {
			minOff = d
		}
		if d := run(obs.NewTracer(obs.Discard, 0), obs.NewSpanRecorder(obs.DiscardSpans, 0)); d < minOn {
			minOn = d
		}
	}
	ratio := float64(minOn) / float64(minOff)
	t.Logf("disabled %v, discard sink %v, ratio %.3f", minOff, minOn, ratio)
	if ratio > 1.25 {
		t.Errorf("discard-sink tracing is %.0f%% slower than disabled (want <= 25%%)", 100*(ratio-1))
	}
}

// BenchmarkMachineTraceDiscard is BenchmarkMachineRefsPerSec with tracing
// enabled on the discard sink, for before/after comparison of the
// instrumentation's cost.
func BenchmarkMachineTraceDiscard(b *testing.B) {
	w := overheadWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := testConfig(16, CoarseVec2)
		cfg.Trace = obs.NewTracer(obs.Discard, 0)
		cfg.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}
