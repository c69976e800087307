// Command report runs the whole evaluation and writes a self-contained
// markdown report (figures, tables and ablations) to a file or stdout.
//
//	report -o REPORT.md            # everything (several minutes)
//	report -sparse=false           # skip the slow sparse sweeps
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"dircoh/internal/cli"
	"dircoh/internal/exp"
)

func main() {
	var (
		out       = flag.String("o", "", "output file (default stdout)")
		procs     = flag.Int("procs", exp.Procs, "processors")
		trials    = flag.Int("trials", 2000, "Monte-Carlo trials for Figure 2")
		sparse    = flag.Bool("sparse", true, "include the sparse-directory sweeps (slow)")
		ablations = flag.Bool("ablations", true, "include the ablation studies")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = one per core)")
	)
	obsFlags := cli.NewObs("report").EnableServer()
	flag.Parse()
	cli.Check("report", obsFlags.Start())
	defer obsFlags.Stop()
	s := obsFlags.Session(*parallel)

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatalf("report", "%v", err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	start := time.Now()
	opt := exp.ReportOptions{Procs: *procs, Trials: *trials, Sparse: *sparse, Ablations: *ablations}
	cli.Check("report", s.WriteReport(w, opt))
	cli.Check("report", w.Flush())
	fmt.Fprintf(os.Stderr, "report generated in %s\n", time.Since(start).Round(time.Second))
}
