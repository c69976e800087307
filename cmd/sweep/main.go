// Command sweep runs the paper's complete experiment suite and prints
// every table and figure of the evaluation section, then the beyond-64
// scale study and the ablations. This is the program that produced
// EXPERIMENTS.md. Each simulation runs on one goroutine, and independent
// simulations are spread across a worker pool; output is byte-identical
// at any parallelism. The wall-clock footer goes to stderr.
//
//	sweep                     # everything, using all cores
//	sweep -only 7-10          # just the scheme-comparison figures
//	sweep -parallel 1         # serial baseline
//	sweep -md > REPORT.md     # the same sections as a markdown report
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dircoh/internal/cli"
	"dircoh/internal/exp"
)

func main() {
	var (
		only     = flag.String("only", "all", "comma list of: "+strings.Join(exp.SweepSectionKeys, ", "))
		procs    = flag.Int("procs", exp.Procs, "processors for the simulation experiments")
		trials   = flag.Int("trials", 2000, "Monte-Carlo trials for Figure 2")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = one per core)")
		md       = flag.Bool("md", false, "render the sections as a markdown report")
	)
	obsFlags := cli.NewObs("sweep").EnableServer()
	flag.Parse()
	cli.Positive("sweep", "procs", "trials")
	keys, err := exp.ParseSections(*only)
	if err != nil {
		cli.Usagef("sweep", "-only: %v", err)
	}
	format := exp.Plain
	if *md {
		format = exp.Markdown
	}
	cli.Check("sweep", obsFlags.Start())
	defer obsFlags.Stop()
	s := obsFlags.Session(*parallel)
	start := time.Now()

	err = s.Sweep(os.Stdout, keys, *procs, *trials, format)

	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "\nsweep completed in %s with %d workers\n", elapsed.Round(time.Second), s.Parallelism())
	fmt.Fprintln(os.Stderr, s.Meter().Summary().Footer(elapsed))
	if err != nil {
		cli.Fatalf("sweep", "%v", err) // stops the outputs before exiting
	}
}
