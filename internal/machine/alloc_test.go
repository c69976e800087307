package machine_test

import (
	"runtime"
	"testing"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/sparse"
)

// maxAllocsPerEvent is the event loop's allocation budget: heap
// allocations in Machine.Run per event fired. Events are typed values and
// their operands live in procs and in slab records, so a run allocates
// only when a structure reaches a new peak (cache pages, records, map
// buckets, queues).
const maxAllocsPerEvent = 0.05

// TestRunAllocsPerEvent pins the allocation budget on each fault-free,
// spans-off Figure 7 LU scheme and on the sparse LU run of Figures 11, 13
// and 14 (Dir32, size factor 1, random replacement). Allocation counts
// are exact, so the bound is a gate, not a timing.
func TestRunAllocsPerEvent(t *testing.T) {
	w := exp.Workload("LU", exp.Procs)
	type run struct {
		name string
		cfg  machine.Config
	}
	var runs []run
	for _, s := range exp.Schemes {
		runs = append(runs, run{"Fig 7 LU " + s.Label, machine.DefaultConfig(s.Factory)})
	}
	runs = append(runs, run{"sparse LU Dir32 random", exp.SparseConfigFor("LU", machine.FullVec, exp.Procs, 1, 4, sparse.Random)})
	for _, r := range runs {
		if testing.Short() && r.name != runs[0].name {
			continue
		}
		r.cfg.Seed = 1
		m, err := machine.New(r.cfg)
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
		allocs := after.Mallocs - before.Mallocs
		per := float64(allocs) / float64(m.Events())
		t.Logf("%s: %d events, %d allocations, %.4f per event, %.1f MB", r.name, m.Events(), allocs, per,
			float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		if per > maxAllocsPerEvent {
			t.Errorf("%s: %.3f allocations per event, budget %.2f", r.name, per, maxAllocsPerEvent)
		}
	}
}
