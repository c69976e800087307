// Command dashsim runs one application on one simulated DASH-style
// machine configuration and prints the paper's measurements: execution
// time, the four message classes, the invalidation distribution, and
// directory statistics.
//
// Examples:
//
//	dashsim -app LocusRoute -scheme cv
//	dashsim -app LU -scheme Dir4CV8 -sparse 64 -assoc 4 -policy rand -hist
//	dashsim -app MP3D -procs 64 -ppc 4 -scheme full -trace-out mp3d.jsonl
//	dashsim -app trace:lu8 -procs 8 -scheme cv
package main

import (
	"flag"
	"fmt"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/cli"
	"dircoh/internal/core"
	"dircoh/internal/machine"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
)

const tool = "dashsim"

func main() {
	var (
		app     = flag.String("app", "LocusRoute", "application: "+strings.Join(apps.All(), ", ")+", or trace:<dir> to replay a recorded trace (see cmd/tracegen)")
		procs   = flag.Int("procs", 32, "total processors")
		ppc     = flag.Int("ppc", 1, "processors per cluster")
		scheme  = flag.String("scheme", "full", "directory scheme: full, cv, b, nb, x, or notation like Dir3CV2")
		ptrs    = flag.Int("ptrs", 3, "pointers for limited schemes")
		region  = flag.Int("region", 2, "coarse vector region size")
		sparseN = flag.Int("sparse", 0, "sparse directory entries per cluster (0 = full map)")
		assoc   = flag.Int("assoc", 4, "sparse directory associativity")
		polName = flag.String("policy", "lru", "sparse replacement policy: lru, rand, lra")
		l1      = flag.Int("l1", 64<<10, "L1 cache bytes per processor")
		l2      = flag.Int("l2", 256<<10, "L2 cache bytes per processor")
		hist    = flag.Bool("hist", false, "print the invalidation distribution")
		lat     = flag.Bool("lat", false, "print read/write latency histograms")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	obsFlags := cli.NewObs(tool).EnableServer()
	flag.Parse()
	cli.Positive(tool, "procs")

	f, err := core.ParseSpec(*scheme, *ptrs, *region)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	pol, err := sparse.ParsePolicy(*polName)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	build, err := apps.Resolve(*app)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	w, err := build(*procs)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	cli.Check(tool, obsFlags.Start())
	defer obsFlags.Stop()

	cfg := machine.DefaultConfig(f)
	cfg.Procs = *procs
	cfg.ProcsPerCluster = *ppc
	cfg.Cache = cache.Config{L1Size: *l1, L1Assoc: 1, L2Size: *l2, L2Assoc: 1, Block: 16}
	cfg.Seed = *seed
	if *sparseN > 0 {
		cfg.Sparse = machine.SparseConfig{Entries: *sparseN, Assoc: *assoc, Policy: pol}
	}
	// The session's one-run path wires every observer flag into the run
	// and, when the run fails, still hands its trace, spans and metrics to
	// the outputs: they show how the run got where it failed.
	r, err := obsFlags.Session(1).RunConfigured(w.Name, w, cfg)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	c := w.Characterize()
	fmt.Printf("%s: %d procs (%d clusters), scheme %s\n", w.Name, cfg.Procs, cfg.Clusters(), r.Scheme)
	fmt.Printf("shared refs: %d (%d reads, %d writes), sync ops: %d, shared data: %.1f KB\n",
		c.SharedRefs, c.SharedReads, c.SharedWrites, c.SyncOps, float64(c.SharedBytes)/1024)

	fmt.Println()
	fmt.Print(r.Summary())
	fmt.Printf("  message classes: %d %v, %d %v, %d %v, %d %v\n",
		r.Msgs[stats.Request], stats.Request,
		r.Msgs[stats.Reply], stats.Reply,
		r.Msgs[stats.Invalidation], stats.Invalidation,
		r.Msgs[stats.Ack], stats.Ack)
	fmt.Printf("  network: %d messages, %.2f avg hops\n", r.Net.Messages, float64(r.Net.Hops)/float64(max(1, r.Net.Messages)))
	fmt.Printf("  caches: %d misses, %d upgrades, %d dirty evictions\n", r.Cache.Misses, r.Cache.Upgrades, r.Cache.DirtyEv)
	fmt.Printf("  directory: %d lookups, %d allocations, %d replacements\n", r.Dir.Lookups, r.Dir.Allocations, r.Dir.Replacements)
	if *hist {
		fmt.Println()
		fmt.Print(r.InvalHist.Render("invalidation distribution (invalidations per event)"))
	}
	if *lat {
		fmt.Println()
		fmt.Print(r.ReadLat.Render("read latency (cycles)"))
		fmt.Print(r.WriteLat.Render("write latency (cycles)"))
	}
}
