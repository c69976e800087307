// Command tracegen generates a reference trace for one of the paper's
// applications and writes it in the binary trace format, or inspects an
// existing trace — the paper's "Tango can be used to generate
// multiprocessor reference traces" mode.
//
//	tracegen -app LU -procs 32 -o lu32.trace
//	tracegen -info lu32.trace
//
// Replay a trace with:
//
//	dashsim -trace lu32.trace -scheme cv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/cli"
	"dircoh/internal/trace"
)

const tool = "tracegen"

func main() {
	var (
		app   = flag.String("app", "LU", "application to trace: "+strings.Join(apps.All(), ", "))
		procs = flag.Int("procs", 32, "processors")
		out   = flag.String("o", "", "output trace file")
		info  = flag.String("info", "", "print characteristics of an existing trace file")
	)
	obsFlags := cli.NewObs(tool)
	flag.Parse()
	cli.Check(tool, obsFlags.Start())
	defer obsFlags.Stop()

	if *info != "" {
		f, err := os.Open(*info)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		defer f.Close()
		wl, err := trace.Read(f)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		c := wl.Characterize()
		fmt.Printf("%s: %d processors\n", wl.Name, wl.Procs())
		fmt.Printf("shared refs: %d (%d reads, %d writes), sync ops: %d, shared data: %.1f KB\n",
			c.SharedRefs, c.SharedReads, c.SharedWrites, c.SyncOps, float64(c.SharedBytes)/1024)
		return
	}

	if *out == "" {
		cli.Usagef(tool, "-o output file required (or use -info)")
	}
	cli.Positive(tool, "procs")
	build, err := apps.Lookup(*app)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	wl := build(*procs)
	f, err := os.Create(*out)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	if err := trace.Write(f, wl); err != nil {
		f.Close()
		cli.Fatalf(tool, "%v", err)
	}
	if err := f.Close(); err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	st, _ := os.Stat(*out)
	c := wl.Characterize()
	fmt.Printf("wrote %s: %d refs from %d procs, %d bytes (%.2f bytes/ref)\n",
		*out, c.SharedRefs+c.SyncOps, wl.Procs(), st.Size(),
		float64(st.Size())/float64(c.SharedRefs+c.SyncOps))
}
