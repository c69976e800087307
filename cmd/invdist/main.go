// Command invdist regenerates the paper's invalidation-distribution
// results: Figure 2 (Monte-Carlo average invalidations versus sharer
// count, for 32 and 64 processors) and Figures 3–6 (measured invalidation
// distributions of LocusRoute under the four directory schemes).
package main

import (
	"flag"
	"fmt"

	"dircoh/internal/analytic"
	"dircoh/internal/cli"
	"dircoh/internal/core"
	"dircoh/internal/stats"
)

// fig2Plot draws the Figure 2 curves as an ASCII chart.
func fig2Plot(nodes, trials int, seed int64) string {
	region := 2
	if nodes >= 64 {
		region = 4
	}
	xs := make([]int, 0, nodes-1)
	for s := 1; s < nodes; s++ {
		xs = append(xs, s)
	}
	slice := func(curve []float64) []float64 { return curve[1:nodes] }
	p := stats.NewPlot(
		fmt.Sprintf("Figure 2: average invalidations vs sharers, %d processors", nodes),
		"number of sharers", "invalidations per write")
	p.AddSeries("Dir3B", xs, slice(analytic.InvalCurve(core.Must(core.NewLimitedBroadcast(3, nodes)), trials, seed)))
	p.AddSeries("Dir3X", xs, slice(analytic.InvalCurve(core.Must(core.NewSuperset(3, nodes)), trials, seed)))
	p.AddSeries(fmt.Sprintf("Dir3CV%d", region), xs, slice(analytic.InvalCurve(core.Must(core.NewCoarseVector(3, region, nodes)), trials, seed)))
	p.AddSeries(fmt.Sprintf("Dir%d", nodes), xs, slice(analytic.InvalCurve(core.Must(core.NewFullVector(nodes)), trials, seed)))
	return p.Render(64, 20)
}

func main() {
	var (
		fig2   = flag.Bool("fig2", true, "print Figure 2 (analytic curves)")
		plot   = flag.Bool("plot", true, "draw Figure 2 as an ASCII chart (in addition to the table)")
		table  = flag.Bool("table", false, "print the full Figure 2 data table")
		hist   = flag.Bool("hist", true, "print Figures 3-6 (LocusRoute distributions)")
		trials = flag.Int("trials", 2000, "Monte-Carlo trials per sharer count")
		procs  = flag.Int("procs", 32, "processors for the LocusRoute runs")
		seed   = flag.Int64("seed", 1, "Monte-Carlo seed")
	)
	obsFlags := cli.NewObs("invdist").EnableServer()
	flag.Parse()
	if err := analytic.ValidateTrials(*trials); err != nil {
		cli.Usagef("invdist", "%v", err)
	}
	cli.Check("invdist", obsFlags.Start())
	defer obsFlags.Stop()
	s := obsFlags.Session(0)

	if *fig2 {
		if *plot {
			fmt.Println(fig2Plot(32, *trials, *seed))
			fmt.Println(fig2Plot(64, *trials, *seed))
		}
		if *table {
			fmt.Println("Figure 2(a): average invalidations vs sharers, 32 processors")
			fmt.Println(analytic.Fig2Table(32, *trials, *seed))
			fmt.Println("Figure 2(b): average invalidations vs sharers, 64 processors")
			fmt.Println(analytic.Fig2Table(64, *trials, *seed))
		}
	}
	if *hist {
		for _, run := range s.Figs3to6(*procs) {
			fmt.Print(run.Result.InvalHist.Render(
				fmt.Sprintf("%s — invalidation distribution, LocusRoute", run.Label)))
			fmt.Println()
		}
	}
}
