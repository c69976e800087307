package stress

import "testing"

// BenchmarkStressCampaign prices one campaign of the simd-stress spec (the
// campaign service's stress job as perfbench submits it: 4 trials of 8
// processors, 500 references each over 16 blocks), run in-process one
// trial after another with the invariant checker on and with it off, so
// the service's checker cost has a number beside BenchmarkObservers.
func BenchmarkStressCampaign(b *testing.B) {
	for _, bc := range []struct {
		name  string
		check bool
	}{{"checked", true}, {"unchecked", false}} {
		b.Run(bc.name, func(b *testing.B) {
			o := Options{Trials: 4, Seed: 1, Procs: []int{8}, Refs: 500, Blocks: 16, Check: bc.check}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < o.Trials; j++ {
					if tr := RunTrial(j, SeedFor(o.Seed, j, o.Trials), o); tr.Failed() {
						b.Fatalf("trial %d (%s) failed: err=%v violations=%v coherence=%v",
							j, tr.Desc, tr.Err, tr.Caught, tr.CohErr)
					}
				}
			}
		})
	}
}
