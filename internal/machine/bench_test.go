package machine

import (
	"math/rand"
	"runtime"
	"testing"

	"dircoh/internal/tango"
)

// BenchmarkMachineRefsPerSec measures end-to-end simulation throughput:
// simulated shared references per wall-clock second on a 16-processor
// machine with a mixed workload, and the event loop's heap allocations
// per event fired. The workload is generated once, outside the timed
// loop, so neither metric includes the generator.
func BenchmarkMachineRefsPerSec(b *testing.B) {
	const procs = 16
	const refsPerProc = 2000
	mkWorkload := func(seed int64) *tango.Workload {
		rng := rand.New(rand.NewSource(seed))
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
	w := mkWorkload(7)
	var events, mallocs uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(testConfig(procs, CoarseVec2))
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := m.Run(w); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		events += m.Events()
	}
	b.ReportMetric(float64(procs*refsPerProc*b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}
