package machine

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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

// TestTraceOverheadDisabled bounds what observing costs: simulating with
// event tracing AND span recording enabled on the discard sinks must stay
// within 25% of the nil-ring run. On a 2-vCPU host the ratio read
// 1.00-1.29 over 16 runs of this test alone, and perfbench's traced
// paper-32 pass reads 1.01-1.25; BenchmarkObservers prices each observer
// alone. Each run starts after a collection and is timed in the
// process's CPU time with the collector off, so neither other processes
// on the host nor where a collection happens to fall moves the reading;
// TestSpanRecordsReused gates the bytes tracing allocates. Fifteen
// interleaved rounds are run and the minimum of each side is compared,
// so a disturbed round cannot fail the test.
func TestTraceOverheadDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	w := overheadWorkload()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(tr *obs.Tracer, sp *obs.SpanRecorder) time.Duration {
		cfg := testConfig(16, CoarseVec2)
		cfg.Trace = tr
		cfg.Spans = sp
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := processCPU()
		if _, err := m.Run(w); err != nil {
			t.Fatal(err)
		}
		return processCPU() - start
	}
	run(nil, nil) // warm up caches and the allocator

	minOff := time.Duration(1<<63 - 1)
	minOn := minOff
	for round := 0; round < 15; round++ {
		if d := run(nil, nil); d < minOff {
			minOff = d
		}
		if d := run(obs.NewTracer(obs.Discard, 0), obs.NewSpanRecorder(obs.Discard, 0)); d < minOn {
			minOn = d
		}
	}
	ratio := float64(minOn) / float64(minOff)
	t.Logf("disabled %v, discard sink %v, ratio %.3f", minOff, minOn, ratio)
	if ratio > 1.25 {
		t.Errorf("discard-sink tracing is %.0f%% slower than disabled (want <= 25%%)", 100*(ratio-1))
	}
}

// TestSpanRecordsReused pins span tracing's memory: a transaction's record
// is reused once nothing can name it, so a run recording spans to the
// discard sink allocates at most a few kilobytes more than the same run
// with spans off. The faulty run drops and duplicates messages, so
// records are also held by undelivered envelopes. Byte counts are exact,
// so the bound is a gate, not a timing.
func TestSpanRecordsReused(t *testing.T) {
	w := overheadWorkload()
	for _, faults := range []bool{false, true} {
		run := func(spans bool) uint64 {
			cfg := testConfig(16, CoarseVec2)
			cfg.Seed = 1
			if faults {
				cfg.Mesh.Faults.Drop, cfg.Mesh.Faults.Dup = 0.02, 0.02
			}
			if spans {
				cfg.Spans = obs.NewSpanRecorder(obs.Discard, 0)
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := m.Run(w); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		off, on := run(false), run(true)
		t.Logf("faults %v: %d bytes with spans off, %d with spans on", faults, off, on)
		if on > off+64<<10 {
			t.Errorf("faults %v: span tracing allocated %d bytes beyond the spans-off run (budget 64 KiB)", faults, on-off)
		}
	}
}
