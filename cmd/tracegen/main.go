// Command tracegen records a workload's reference trace as a directory
// of per-core text files (core_<p>.txt, one RD/WR/LOCK/UNLOCK/BARRIER
// instruction a line; see internal/apps), or inspects a recorded trace —
// the paper's "Tango can be used to generate multiprocessor reference
// traces" mode.
//
//	tracegen -app LU -procs 32 -o lu32
//	tracegen -info lu32 -procs 32
//
// Replay a trace with any command that takes an application name:
//
//	dashsim -app trace:lu32 -procs 32 -scheme cv
package main

import (
	"flag"
	"fmt"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/cli"
)

const tool = "tracegen"

func main() {
	var (
		app   = flag.String("app", "LU", "application to trace: "+strings.Join(apps.All(), ", ")+", or trace:<dir>")
		procs = flag.Int("procs", 32, "processors")
		out   = flag.String("o", "", "directory to write the trace into, one core_<p>.txt per processor")
		info  = flag.String("info", "", "print characteristics of the trace in this directory, read at -procs cores")
	)
	obsFlags := cli.NewObs(tool)
	flag.Parse()
	cli.Positive(tool, "procs")
	name := *app
	if *info != "" {
		name = "trace:" + *info
	} else if *out == "" {
		cli.Usagef(tool, "-o output directory required (or use -info)")
	}
	build, err := apps.Resolve(name)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	cli.Check(tool, obsFlags.Start())
	defer obsFlags.Stop()

	wl, err := build(*procs)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	c := wl.Characterize()
	if *info != "" {
		fmt.Printf("%s: %d processors\n", wl.Name, wl.Procs())
		fmt.Printf("shared refs: %d (%d reads, %d writes), sync ops: %d, shared data: %.1f KB\n",
			c.SharedRefs, c.SharedReads, c.SharedWrites, c.SyncOps, float64(c.SharedBytes)/1024)
		return
	}
	size, err := apps.WriteTraceDir(*out, wl)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	refs := c.SharedRefs + c.SyncOps
	fmt.Printf("wrote %s: %d refs from %d procs, %d bytes (%.2f bytes/ref)\n",
		*out, refs, wl.Procs(), size, float64(size)/float64(refs))
}
