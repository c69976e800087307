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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/cli"
	"dircoh/internal/core"
	"dircoh/internal/machine"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
	"dircoh/internal/trace"
)

const tool = "dashsim"

func policy(name string) (sparse.ReplacePolicy, error) {
	switch strings.ToLower(name) {
	case "lru":
		return sparse.LRU, nil
	case "rand", "random":
		return sparse.Random, nil
	case "lra":
		return sparse.LRA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want lru|rand|lra)", name)
	}
}

func main() {
	var (
		app     = flag.String("app", "LocusRoute", "application: "+strings.Join(apps.All(), ", "))
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
		traceIn = flag.String("trace", "", "replay a trace file (see cmd/tracegen) instead of generating -app")
	)
	obsFlags := cli.NewObs(tool).EnableServer()
	flag.Parse()
	cli.Positive(tool, "procs")

	f, err := core.ParseSpec(*scheme, *ptrs, *region)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	pol, err := policy(*polName)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	var w *tango.Workload
	if *traceIn != "" {
		tf, err := os.Open(*traceIn)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		w, err = trace.Read(tf)
		tf.Close()
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		*procs = w.Procs()
	} else {
		build, err := apps.Lookup(*app)
		if err != nil {
			cli.Usagef(tool, "%v", err)
		}
		w = build(*procs)
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
	cfg.Trace = obsFlags.Tracer(w.Name)
	cfg.Spans = obsFlags.Spans(w.Name)
	cfg.SampleEvery = obsFlags.SampleEvery()
	cfg.Mesh.Faults = obsFlags.Faults()
	cfg.Deadline = obsFlags.Deadline()
	if lv := obsFlags.Live(); lv != nil {
		cfg.Live = lv.Run(w.Name)
	}
	if obsFlags.Checking() {
		cfg.Check = true
		cfg.CheckSink = obsFlags.CheckSink(w.Name)
	}
	m, err := machine.New(cfg)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	c := w.Characterize()
	fmt.Printf("%s: %d procs (%d clusters), scheme %s\n", w.Name, *procs, cfg.Clusters(), m.Scheme().Name())
	fmt.Printf("shared refs: %d (%d reads, %d writes), sync ops: %d, shared data: %.1f KB\n",
		c.SharedRefs, c.SharedReads, c.SharedWrites, c.SyncOps, float64(c.SharedBytes)/1024)

	r, err := m.Run(w)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	if err := m.CheckCoherence(); err != nil {
		cli.Fatalf(tool, "coherence check failed: %v", err)
	}
	if err := m.CheckErr(); err != nil {
		cli.Fatalf(tool, "%v (%d total; see -check-out for records)", err, m.ViolationCount())
	}
	cli.Check(tool, m.FlushTrace())
	cli.Check(tool, m.FlushSpans())
	obsFlags.WriteMetrics(w.Name, m.MetricsSnapshot())

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

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
