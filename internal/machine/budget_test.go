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
// line was allocated up front it took 641 MB. Each kind of per-cluster and
// per-processor state is one slice (clusters, processors, cache
// hierarchies and their page indexes, full-map directories), so the build
// makes one allocation a cluster, its scheme instance, plus a fixed 256.
// The 16,384-cluster machine is then built and run end to end.
func TestConstructionBudget(t *testing.T) {
	const budget = 8 << 20
	const clusters = 1024
	const allocBudget = clusters + 256
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

// TestRunBudget pins what running and checking the 1,024-cluster scale
// probe allocates. Outstanding misses live in the processors, tree-barrier
// nodes are reused across episodes, and the per-cluster tables are made on
// first write, so what remains is each structure's first touch: cache
// pages, directory entries and their map, the gate a remote write locks,
// the tree nodes, about 15 allocations a cluster.
func TestRunBudget(t *testing.T) {
	const clusters = 1024
	const allocBudget = 16 * clusters
	m, _, _ := buildScaleMachine(t, clusters)
	w := exp.ScaleProbe(clusters, 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("Run + CheckCoherence at %d clusters: %v, %.1f MB, %d allocations, %d events", clusters,
		elapsed.Round(time.Microsecond), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), allocs, m.Events())
	if allocs > allocBudget {
		t.Fatalf("Run + CheckCoherence at %d clusters made %d allocations, budget %d", clusters, allocs, allocBudget)
	}
}

// TestLURunBudget pins what running and checking Figure 7's LU under
// Dir32 at 32 processors with the default caches allocates. A cache line
// is one word, a direct-mapped cache keeps no LRU stamps, and
// CheckCoherence sizes one holder buffer from the caches' occupancy, so
// Run + CheckCoherence stays within 12 MB (24-byte lines and a holder
// slice grown by append took 23.5 MB). CheckCoherence alone makes at most
// 2 allocations: the holder buffer and the radix sort's scratch.
func TestLURunBudget(t *testing.T) {
	const budget = 12 << 20
	const checkAllocs = 2
	w := exp.Workload("LU", exp.Procs)
	m, err := machine.New(machine.DefaultConfig(machine.FullVec))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Run + CheckCoherence of LU Dir32 at %d processors: %.1f MB, %d allocations", exp.Procs,
		float64(bytes)/(1<<20), after.Mallocs-before.Mallocs)
	if bytes > budget {
		t.Errorf("Run + CheckCoherence allocated %.1f MB, budget %d MB", float64(bytes)/(1<<20), budget>>20)
	}
	if a := testing.AllocsPerRun(3, func() {
		if err := m.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	}); a > checkAllocs {
		t.Errorf("CheckCoherence made %v allocations, budget %d", a, checkAllocs)
	}
}

// TestCheckedLURunBudget pins what the runtime coherence checker
// allocates: New + Run of Figure 7's LU under Dir3CV2 at 32 processors
// with Config.Check on stays within 2% of the same run's allocations
// unchecked and within 1 MB of its bytes. When the checker brought a
// 4,096-span ring that discarded everything, a record per transaction and
// a closure per coherence check, the run made 175,130 allocations against
// 18,863 and allocated 5.9 MB more.
func TestCheckedLURunBudget(t *testing.T) {
	w := exp.Workload("LU", exp.Procs)
	run := func(checked bool) (bytes, allocs uint64) {
		cfg := machine.DefaultConfig(machine.CoarseVec2)
		cfg.Check = checked
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := m.CheckErr(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	plainBytes, plainAllocs := run(false)
	bytes, allocs := run(true)
	t.Logf("New + Run of LU Dir3CV2 at %d processors: %.1f MB and %d allocations unchecked, %.1f MB and %d checked",
		exp.Procs, float64(plainBytes)/(1<<20), plainAllocs, float64(bytes)/(1<<20), allocs)
	if allocs > plainAllocs+plainAllocs/50 {
		t.Errorf("the checked run made %d allocations, more than 2%% over the unchecked run's %d", allocs, plainAllocs)
	}
	if bytes > plainBytes+1<<20 {
		t.Errorf("the checked run allocated %.2f MB beyond the unchecked run, budget 1 MB", float64(bytes-plainBytes)/(1<<20))
	}
}

// TestLUBuildBudget pins what generating Figure 7's LU at 32 processors
// allocates. A reference is one 8-byte word, so the streams and the
// copies their append growth leaves behind stay within 36 MB; 16-byte
// references took 66.6 MB.
func TestLUBuildBudget(t *testing.T) {
	const budget = 36 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := exp.WorkloadSeeded("LU", 32, 7)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	var refs int
	for _, s := range w.Streams {
		refs += len(s)
	}
	t.Logf("LU at 32 processors: %d references, %.1f MB allocated", refs, float64(bytes)/(1<<20))
	if bytes > budget {
		t.Errorf("building LU at 32 processors allocated %.1f MB, budget %d MB", float64(bytes)/(1<<20), budget>>20)
	}
}
