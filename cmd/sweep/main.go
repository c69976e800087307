// Command sweep runs the paper's complete experiment suite and prints
// every table and figure of the evaluation section. This is the program
// that produced EXPERIMENTS.md. Independent simulations are sharded
// across a worker pool; output is byte-identical at any parallelism.
//
//	sweep             # everything, using all cores
//	sweep -only 7-10  # just the scheme-comparison figures
//	sweep -parallel 1 # serial baseline
//	sweep -shards 4   # four machine-core shards, bit-identical output
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dircoh/internal/analytic"
	"dircoh/internal/cli"
	"dircoh/internal/exp"
)

func main() {
	var (
		only     = flag.String("only", "all", "comma list of: 2, t1, t2, 3-6, 7-10, 11-12, 13, 14, scale, scale-sim")
		procs    = flag.Int("procs", exp.Procs, "processors for the simulation experiments")
		trials   = flag.Int("trials", 2000, "Monte-Carlo trials for Figure 2")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = one per core)")
	)
	obsFlags := cli.NewObs("sweep").EnableServer()
	flag.Parse()
	if err := analytic.ValidateTrials(*trials); err != nil {
		cli.Usagef("sweep", "%v", err)
	}
	keys, err := exp.ParseSections(*only)
	if err != nil {
		cli.Usagef("sweep", "-only: %v", err)
	}
	cli.Check("sweep", obsFlags.Start())
	defer obsFlags.Stop()
	s := obsFlags.Session(*parallel)
	start := time.Now()

	runSweep(s, os.Stdout, keys, *procs, *trials)

	elapsed := time.Since(start)
	fmt.Printf("\nsweep completed in %s with %d workers\n", elapsed.Round(time.Second), s.Parallelism())
	fmt.Println(s.Meter().Summary().Footer(elapsed))
}
