// Command protostress hammers the coherence protocol with seeded
// adversarial workloads across a randomized grid of machine
// configurations — scheme × processor count × clustering × replacement
// policy × tiny-directory geometry — with the runtime invariant checker
// on for every run. Tiny sparse directories force constant recalls;
// short reference streams over a small block pool maximize ownership
// migration and gate contention. Any invariant violation fails the
// command and prints the trial's seed and an exact replay line.
//
// With -fault the command becomes a self-test of the checker: it injects
// the named protocol mutation and exits zero only if at least one trial
// catches it.
//
// With -faults the mesh fault-injection layer runs under every trial: a
// fixed spec (see mesh.ParseFaults) applies one fault mix to all trials,
// while the literal "campaign" draws a different seeded mix per trial —
// drop/dup/delay/outage rates sampled from the trial rng — and the
// recovery machinery must still complete every transaction with zero
// violations. With -wedge the command becomes a self-test of the liveness
// watchdog: every message is dropped and the retry budget cut, so it
// exits zero only if every trial aborts with the watchdog's diagnostic
// dump.
//
// The campaign machinery itself lives in internal/stress so the campaign
// service (cmd/simd) can journal and resume stress runs trial by trial;
// this command is flag parsing plus the self-test exit policy.
//
//	protostress                        # 64 clean trials, all cores
//	protostress -trials 8 -seed 42     # quick bounded smoke
//	protostress -fault drop-inval      # the mutation must be caught
//	protostress -trials 50 -faults campaign  # seeded fault-mix sweep
//	protostress -trials 2 -wedge       # the watchdog must trip
//	protostress -trials 1 -seed 7 -v   # replay one trial, verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dircoh/internal/cli"
	"dircoh/internal/machine"
	"dircoh/internal/mesh"
	"dircoh/internal/stress"
)

const tool = "protostress"

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		trialsN   = flag.Int("trials", 64, "randomized configurations to run")
		seed      = flag.Int64("seed", 1, "campaign seed; trial seeds derive from it (-trials 1 runs it exactly, for replays)")
		procsStr  = flag.String("procs", "4,6,8", "comma list of processor counts to draw from")
		refs      = flag.Int("refs", 300, "shared references per processor")
		blocks    = flag.Int("blocks", 24, "shared data blocks in the contended pool")
		faultStr  = flag.String("fault", "none", "inject a protocol mutation (none, drop-inval, skip-recall); the checker must catch it")
		faultsStr = flag.String("faults", "", "inject network faults under every trial: a mesh.ParseFaults spec, or 'campaign' for a seeded per-trial mix; recovery must keep every trial clean")
		wedge     = flag.Bool("wedge", false, "watchdog self-test: drop every message with a tiny retry budget; every trial must abort with a diagnostic dump")
		checkOn   = flag.Bool("check", true, "run the invariant checker on every trial (the checker clamps the run to width 1; disable it to exercise -shards)")
		shards    = flag.Int("shards", 1, "run each trial on N parallel event-wheel shards (width differential runs use -check=false -shards N)")
		parallel  = flag.Int("parallel", 0, "concurrent trials (0 = one per core)")
		verbose   = flag.Bool("v", false, "print every trial, not just failures")
	)
	flag.Parse()

	fault, err := machine.ParseFault(*faultStr)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	procs, err := parseProcs(*procsStr)
	if err != nil {
		cli.Usagef(tool, "%v", err)
	}
	if *trialsN <= 0 || *refs <= 0 || *blocks <= 0 || *shards <= 0 {
		cli.Usagef(tool, "-trials, -refs, -blocks and -shards must be positive")
	}
	if *faultsStr != "" && *faultsStr != "campaign" {
		if _, err := mesh.ParseFaults(*faultsStr); err != nil {
			cli.Usagef(tool, "-faults: %v", err)
		}
	}
	if *wedge && (*faultsStr != "" || fault != machine.FaultNone) {
		cli.Usagef(tool, "-wedge is exclusive with -fault and -faults")
	}
	if !*checkOn && fault != machine.FaultNone {
		cli.Usagef(tool, "-fault self-tests need the checker; drop -check=false")
	}
	if *shards > 1 && *checkOn {
		fmt.Fprintf(os.Stderr, "%s: note: -shards %d is clamped to width 1 while the checker is on; add -check=false\n", tool, *shards)
	}

	o := stress.Options{
		Trials: *trialsN, Seed: *seed, Procs: procs, Refs: *refs,
		Blocks: *blocks, Fault: fault, Faults: *faultsStr, Wedge: *wedge,
		Check: *checkOn, Shards: *shards,
		Parallel: *parallel, Verbose: *verbose,
	}
	trials, caught := stress.RunTrials(o)
	stress.Report(os.Stdout, trials, o)

	nviol := 0
	for i := range trials {
		nviol += len(trials[i].Caught)
	}
	fmt.Printf("%d trials, %d with findings, %d violations total, fault=%s\n",
		len(trials), stress.CountFailed(trials), nviol, fault)

	if o.Wedge {
		// Self-test mode: the liveness watchdog must catch every wedged
		// trial and produce its diagnostic dump.
		for i := range trials {
			if !trials[i].Stuck() {
				cli.Fatalf(tool, "trial %d did not trip the liveness watchdog (err=%v)", trials[i].ID, trials[i].Err)
			}
		}
		fmt.Printf("watchdog caught all %d wedged trials with diagnostic dumps\n", len(trials))
		return
	}
	if fault == machine.FaultNone {
		if caught {
			cli.Fatalf(tool, "protocol invariant violations on an unmutated protocol")
		}
		if o.Faults != "" {
			fmt.Printf("clean: every transaction recovered under fault injection (-faults %s)\n", o.Faults)
			return
		}
		fmt.Println("clean: no invariant violations")
		return
	}
	// Self-test mode: the injected mutation must be detected.
	if !caught {
		cli.Fatalf(tool, "injected fault %s went undetected", fault)
	}
	fmt.Printf("checker caught injected fault %s\n", fault)
}
