package machine_test

import (
	"runtime"
	"testing"
	"time"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
)

// buildScaleMachine builds the scale-probe configuration (full vector, tree
// barriers, default caches) at n clusters, logs what machine.New cost the
// host (wall time, bytes allocated, allocations) and returns the bytes and
// the allocations.
func buildScaleMachine(t *testing.T, n int) (*machine.Machine, uint64, uint64) {
	t.Helper()
	cfg := machine.DefaultConfig(machine.FullVec)
	cfg.Procs = n
	cfg.Barrier = machine.TreeBarrier
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := machine.New(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("machine.New at %d clusters: %v, %.1f MB, %d allocations", n, elapsed.Round(time.Microsecond), float64(bytes)/(1<<20), allocs)
	return m, bytes, allocs
}

// TestConstructionBudget pins what building a large machine costs the
// host. Caches allocate lines only for the pages a run fills, so building
// the 1,024-cluster scale probe must stay within 8 MB; when every cache
// line was allocated up front it took 641 MB. Nothing is built per
// processor for the event loop either (events are typed values, their
// records grow with the run), so the build stays within 25 allocations a
// cluster. The 16,384-cluster machine is then built and run end to end.
func TestConstructionBudget(t *testing.T) {
	const budget = 8 << 20
	const clusters, allocBudget = 1024, 25 * 1024
	_, bytes, allocs := buildScaleMachine(t, clusters)
	if bytes > budget {
		t.Fatalf("machine.New at %d clusters allocated %.1f MB, budget %d MB", clusters, float64(bytes)/(1<<20), budget>>20)
	}
	if allocs > allocBudget {
		t.Fatalf("machine.New at %d clusters made %d allocations, budget %d", clusters, allocs, allocBudget)
	}
	if testing.Short() {
		// About 0.4 s alone, but 1.5 s under the race detector.
		t.Skip("16,384-cluster build and run skipped in -short mode")
	}
	const n = 16384
	m, _, _ := buildScaleMachine(t, n)
	start := time.Now()
	r, err := m.Run(exp.ScaleProbe(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	t.Logf("Run + CheckCoherence at %d clusters: %v, %d cycles", n, time.Since(start).Round(time.Millisecond), r.ExecTime)
}
