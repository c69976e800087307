// Package dircoh's root benchmark harness regenerates every table and
// figure of the paper's evaluation section. Each benchmark runs the
// corresponding experiment and reports its headline quantities as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation:
//
//	BenchmarkFig2_*        — analytic invalidation curves (Figure 2 a/b)
//	BenchmarkTable1        — directory overhead arithmetic
//	BenchmarkTable2        — application characteristics
//	BenchmarkFig3to6_*     — LocusRoute invalidation distributions
//	BenchmarkFig7..10_*    — scheme comparison per application
//	BenchmarkFig11..12_*   — sparse directory performance
//	BenchmarkFig13_Assoc   — sparse associativity sweep
//	BenchmarkFig14_Policy  — sparse replacement policy sweep
package dircoh

import (
	"fmt"
	"runtime"
	"testing"

	"dircoh/internal/analytic"
	"dircoh/internal/core"
	"dircoh/internal/exp"
	"dircoh/internal/sim"
)

// session is the shared experiment session the benchmarks run on:
// default parallelism and machine core width, no instrumentation.
var session = exp.NewSession(exp.Observer{}, 0, 0)

func benchCurves(b *testing.B, nodes, region int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full := analytic.InvalCurve(core.Must(core.NewFullVector(nodes)), 500, 1)
		cv := analytic.InvalCurve(core.Must(core.NewCoarseVector(3, region, nodes)), 500, 1)
		x := analytic.InvalCurve(core.Must(core.NewSuperset(3, nodes)), 500, 1)
		bc := analytic.InvalCurve(core.Must(core.NewLimitedBroadcast(3, nodes)), 500, 1)
		mid := nodes / 2
		b.ReportMetric(full[mid], "full-invals@mid")
		b.ReportMetric(cv[mid], "cv-invals@mid")
		b.ReportMetric(x[mid], "x-invals@mid")
		b.ReportMetric(bc[mid], "b-invals@mid")
	}
}

// BenchmarkFig2_32P regenerates Figure 2(a): 32 processors, Dir3CV2.
func BenchmarkFig2_32P(b *testing.B) { benchCurves(b, 32, 2) }

// BenchmarkFig2_64P regenerates Figure 2(b): 64 processors, Dir3CV4.
func BenchmarkFig2_64P(b *testing.B) { benchCurves(b, 64, 4) }

// BenchmarkTable1 regenerates Table 1's overhead arithmetic.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = analytic.Table1()
		ex := analytic.SparseSavingsExample()
		b.ReportMetric(ex.Savings, "savings-x")
	}
}

// BenchmarkTable2 regenerates Table 2: workload generation and
// characterization for all four applications.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := session.Table2(exp.Procs)
		if tb == nil {
			b.Fatal("no table")
		}
	}
}

// BenchmarkFig3to6_InvalDist regenerates Figures 3-6: the LocusRoute
// invalidation distributions under the four schemes.
func BenchmarkFig3to6_InvalDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := session.Figs3to6(exp.Procs)
		b.ReportMetric(runs[0].Result.InvalHist.Mean(), "full-mean")
		b.ReportMetric(runs[1].Result.InvalHist.Mean(), "nb-mean")
		b.ReportMetric(runs[2].Result.InvalHist.Mean(), "b-mean")
		b.ReportMetric(runs[3].Result.InvalHist.Mean(), "cv-mean")
	}
}

func benchSchemeComparison(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.SchemeComparison(app, exp.Procs)
		base := float64(runs[0].Result.ExecTime)
		baseM := float64(runs[0].Result.Msgs.Total())
		names := []string{"full", "cv", "bcast", "nb"}
		for j, r := range runs {
			b.ReportMetric(float64(r.Result.ExecTime)/base, names[j]+"-exec")
			b.ReportMetric(float64(r.Result.Msgs.Total())/baseM, names[j]+"-msgs")
		}
	}
}

// BenchmarkFig7_LU regenerates Figure 7.
func BenchmarkFig7_LU(b *testing.B) { benchSchemeComparison(b, "LU") }

// BenchmarkFig8_DWF regenerates Figure 8.
func BenchmarkFig8_DWF(b *testing.B) { benchSchemeComparison(b, "DWF") }

// BenchmarkFig9_MP3D regenerates Figure 9.
func BenchmarkFig9_MP3D(b *testing.B) { benchSchemeComparison(b, "MP3D") }

// BenchmarkFig10_LocusRoute regenerates Figure 10.
func BenchmarkFig10_LocusRoute(b *testing.B) { benchSchemeComparison(b, "LocusRoute") }

func benchSparse(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.SparsePerformance(app, exp.Procs)
		base := runs[0].Result
		for _, r := range runs[1:] {
			if r.Label == "Full Vector sf=1" {
				b.ReportMetric(float64(r.Result.ExecTime)/float64(base.ExecTime), "full-sf1-exec")
				b.ReportMetric(float64(r.Result.Msgs.Total())/float64(base.Msgs.Total()), "full-sf1-msgs")
			}
			if r.Label == "Broadcast sf=1" {
				b.ReportMetric(float64(r.Result.Msgs.Total())/float64(base.Msgs.Total()), "bcast-sf1-msgs")
			}
		}
	}
}

// BenchmarkFig11_SparseLU regenerates Figure 11.
func BenchmarkFig11_SparseLU(b *testing.B) { benchSparse(b, "LU") }

// BenchmarkFig12_SparseDWF regenerates Figure 12.
func BenchmarkFig12_SparseDWF(b *testing.B) { benchSparse(b, "DWF") }

// BenchmarkFig13_Assoc regenerates Figure 13.
func BenchmarkFig13_Assoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.AssocSweep("LU", exp.Procs)
		base := float64(runs[0].Result.Msgs.Total())
		for _, r := range runs[1:] {
			switch r.Label {
			case "sf=1 assoc=1":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "sf1-direct-msgs")
			case "sf=1 assoc=4":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "sf1-assoc4-msgs")
			}
		}
	}
}

// BenchmarkAblateRegion sweeps the coarse vector's region size on
// LocusRoute — the ablation behind the choice of r in Dir_iCV_r.
func BenchmarkAblateRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.RegionSweep("LocusRoute", exp.Procs)
		base := float64(runs[0].Result.Msgs.Total())
		for _, r := range runs[1:] {
			if r.Label == "Dir3CV2" || r.Label == "Dir3CV16" {
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, r.Label+"-msgs")
			}
		}
	}
}

// BenchmarkAblatePointers sweeps the pointer budget for B/NB/CV.
func BenchmarkAblatePointers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.PointerSweep("LocusRoute", exp.Procs)
		base := float64(runs[0].Result.Msgs.Total())
		for _, r := range runs[1:] {
			switch r.Label {
			case "Dir_iB i=3":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "Dir3B-msgs")
			case "Dir_iCV2 i=3":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "Dir3CV2-msgs")
			}
		}
	}
}

// BenchmarkAblateLockContention measures the §7 queued-lock hot spot.
func BenchmarkAblateLockContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.LockContention(exp.Procs, 8)
		b.ReportMetric(float64(runs[0].Result.ExecTime), "full-exec")
		b.ReportMetric(float64(runs[1].Result.ExecTime), "cv-exec")
		b.ReportMetric(float64(runs[1].Result.LockRetries), "cv-retries")
	}
}

// BenchmarkFig14_Policy regenerates Figure 14.
func BenchmarkFig14_Policy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.PolicySweep("LU", exp.Procs)
		base := float64(runs[0].Result.Msgs.Total())
		for _, r := range runs[1:] {
			switch r.Label {
			case "sf=1 LRU":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "sf1-lru-msgs")
			case "sf=1 LRA":
				b.ReportMetric(float64(r.Result.Msgs.Total())/base, "sf1-lra-msgs")
			}
		}
	}
}

// BenchmarkAblateDirectories runs the §7 directory-organization comparison.
func BenchmarkAblateDirectories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.DirectoryComparison("LocusRoute", exp.Procs)
		base := float64(runs[0].Result.Msgs.Total())
		b.ReportMetric(float64(runs[3].Result.Msgs.Total())/base, "overflow64-msgs")
		b.ReportMetric(float64(runs[4].Result.Msgs.Total())/base, "overflow8-msgs")
	}
}

// BenchmarkAblateOccupancy measures peak directory occupancy (§4.2).
func BenchmarkAblateOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.OccupancyStudy(exp.Procs)
		for _, r := range runs {
			b.ReportMetric(float64(r.Result.DirPeak), r.App+"-peak")
		}
	}
}

// BenchmarkAblateNetworkContention reruns Figure 10 with finite ports.
func BenchmarkAblateNetworkContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.NetworkContention("LocusRoute", exp.Procs, []sim.Time{8})
		base := float64(runs[0].Result.ExecTime)
		b.ReportMetric(float64(runs[1].Result.ExecTime)/base, "cv-exec")
		b.ReportMetric(float64(runs[2].Result.ExecTime)/base, "bcast-exec")
	}
}

// BenchmarkAblateBlockSize runs the §3.1 block-size tradeoff.
func BenchmarkAblateBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.BlockSizeStudy("MP3D", exp.Procs, []int{16, 64})
		b.ReportMetric(float64(runs[1].Result.Msgs.InvalAck())/float64(runs[0].Result.Msgs.InvalAck()), "invack-64B-vs-16B")
	}
}

// BenchmarkSweepParallel measures the experiment orchestrator's scaling
// on the Figure 7–10 grid (4 applications × 4 schemes) at 8 processors.
// Sub-benchmarks sweep the pool width from 1 to GOMAXPROCS; on a
// multi-core host the reported speedup metric approaches the worker
// count until the grid's 16 jobs stop covering the pool.
func BenchmarkSweepParallel(b *testing.B) {
	widths := []int{1}
	for w := 2; w <= runtime.GOMAXPROCS(0); w *= 2 {
		widths = append(widths, w)
	}
	for _, par := range widths {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			s := exp.NewSession(exp.Observer{}, par, 0)
			for i := 0; i < b.N; i++ {
				s.Meter().Reset()
				start := b.Elapsed()
				for _, app := range []string{"LU", "DWF", "MP3D", "LocusRoute"} {
					runs, _ := s.SchemeComparison(app, 8)
					if len(runs) != 4 {
						b.Fatalf("%s: %d runs", app, len(runs))
					}
				}
				b.ReportMetric(s.Meter().Summary().Speedup(b.Elapsed()-start), "speedup")
			}
		})
	}
}

// BenchmarkAblateBarriers compares central and tree barriers.
func BenchmarkAblateBarriers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _ := session.BarrierStudy(exp.Procs, 6, []sim.Time{8})
		b.ReportMetric(float64(runs[0].Result.ExecTime), "central-exec")
		b.ReportMetric(float64(runs[1].Result.ExecTime), "tree-exec")
	}
}
