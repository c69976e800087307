// Command suite runs a JSON-specified list of experiments and prints a
// comparison table. Runs execute concurrently on a worker pool; the
// table keeps the suite file's order. Example suite file:
//
//	{
//	  "runs": [
//	    {"app": "LocusRoute", "machine": {"scheme": {"kind": "full"}}},
//	    {"app": "LocusRoute", "machine": {"scheme": {"kind": "cv"}}},
//	    {"app": "LocusRoute", "machine": {"scheme": {"kind": "b"}}}
//	  ]
//	}
//
//	suite -f experiments.json
package main

import (
	"flag"
	"fmt"
	"os"

	"dircoh/internal/cli"
	"dircoh/internal/config"
	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/runner"
	"dircoh/internal/stats"
)

const tool = "suite"

// outcome is one run's result or its first error.
type outcome struct {
	r   *machine.Result
	err error
}

func main() {
	var (
		file     = flag.String("f", "", "suite JSON file (required)")
		verbose  = flag.Bool("v", false, "print per-run summaries")
		parallel = flag.Int("parallel", 0, "concurrent runs (0 = one per core)")
	)
	obsFlags := cli.NewObs(tool)
	flag.Parse()
	if *file == "" {
		cli.Usagef(tool, "-f suite file required")
	}
	f, err := os.Open(*file)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	s, err := config.Load(f)
	f.Close()
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	cli.Check(tool, obsFlags.Start())
	defer obsFlags.Stop()

	// One exp.Session carries the observability hooks into every run (the
	// same path the campaign service uses, so outputs match); the suite's
	// own pool provides the cross-run concurrency, so the session executes
	// each entry serially.
	sess := obsFlags.Session(1)

	results := runner.Map(runner.New(*parallel), s.Runs, func(run config.RunSpec) outcome {
		r, err := sess.ExecuteSpec(run)
		return outcome{r: r, err: err}
	})

	tb := stats.NewTable(exp.SuiteTableHeader...)
	for i, run := range s.Runs {
		out := results[i]
		if out.err != nil {
			cli.Fatalf(tool, "%v", out.err)
		}
		if *verbose {
			fmt.Printf("%s:\n%s\n", run.Name, out.r.Summary())
		}
		tb.AddRow(exp.SuiteRowCells(run.Name, out.r)...)
	}
	fmt.Println(tb)
}
