// Package stress is the seeded adversarial protocol-stress campaign
// behind cmd/protostress: randomized machine configurations — scheme ×
// processor count × clustering × replacement policy × tiny-directory
// geometry — run over contended reference streams with the runtime
// invariant checker on. It lives here rather than in the command so the
// campaign service can submit, journal and resume stress campaigns trial
// by trial; cmd/protostress keeps the flag parsing and self-test exit
// policy.
package stress

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/machine"
	"dircoh/internal/mesh"
	"dircoh/internal/replay"
	"dircoh/internal/rng"
	"dircoh/internal/runner"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
	"dircoh/internal/tango"
)

// Options is everything one stress campaign needs; commands fill it from
// flags, the campaign service from a submitted spec.
type Options struct {
	Trials   int
	Seed     int64
	Procs    []int
	Refs     int
	Blocks   int
	Fault    machine.Fault
	Faults   string // "", a mesh.ParseFaults spec, or "campaign"
	Wedge    bool
	Check    bool // run the invariant checker (clamps the run to width 1)
	Shards   int  // machine-core width; effective only with check off
	Parallel int
	Verbose  bool
	// Deadline, when > 0, bounds each trial in wall-clock time via the
	// machine's watchdog abort (the campaign service's per-job timeout).
	Deadline time.Duration
}

// SeedFor derives trial i's seed from the campaign seed: a single-trial
// campaign runs the seed exactly (so printed replay lines reproduce),
// while multi-trial campaigns decorrelate the trials with a splitmix64
// mix.
func SeedFor(campaign int64, i, trials int) int64 {
	if trials == 1 {
		return campaign
	}
	return rng.Mix(campaign, int64(i))
}

// schemeNames mirrors the roster in machine's scheme factories; the
// trial rng indexes into it so a replayed seed picks the same scheme.
var schemeNames = []string{"full", "cv", "b", "nb", "x", "tl"}

var schemes = []machine.SchemeFactory{
	machine.FullVec, machine.CoarseVec2, machine.Broadcast,
	machine.NoBroadcast, machine.SupersetX, machine.TwoLevel,
}

var policies = []sparse.ReplacePolicy{sparse.LRU, sparse.Random, sparse.LRA}
var policyNames = []string{"lru", "rand", "lra"}

// Trial is one randomized configuration plus its outcome.
type Trial struct {
	ID       int
	Seed     int64
	Desc     string
	Err      error
	Caught   []check.Violation
	CohErr   error
	ExecTime uint64
}

// Failed reports whether the trial found anything wrong — a run error,
// an invariant violation, or a quiescence-sweep failure.
func (t *Trial) Failed() bool {
	return t.Err != nil || len(t.Caught) > 0 || t.CohErr != nil
}

// Stuck reports whether the trial was aborted by the liveness watchdog
// (or the undeliverable-message sweep) with a diagnostic dump — the
// outcome -wedge demands from every trial.
func (t *Trial) Stuck() bool {
	var se *machine.StuckError
	return errors.As(t.Err, &se) && se.Dump != ""
}

// Line renders the trial's one-line summary, the row Report prints for
// verbose or failed trials.
func (t *Trial) Line() string {
	return fmt.Sprintf("trial %3d seed=%-12d %s  exec=%d cycles", t.ID, t.Seed, t.Desc, t.ExecTime)
}

// Workload builds the adversarial reference streams: per-proc mixes of
// reads, writes, lock-protected writes and a closing barrier over a small
// block pool. Identical in spirit to the machine package's checker tests,
// but parameterized by the trial rng so every trial stresses a different
// sharing pattern.
func Workload(rng *rand.Rand, procs, refs, blocks int, sync bool) *tango.Workload {
	addr := func(b int64) int64 { return b * 16 }
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var b tango.Builder
		for i := 0; i < refs; i++ {
			blk := int64(rng.Intn(blocks))
			switch rng.Intn(12) {
			case 0, 1, 2, 3:
				b.Write(addr(blk))
			case 4:
				if sync {
					lock := addr(int64(blocks) + int64(rng.Intn(4)))
					b.Lock(lock)
					b.Write(addr(blk))
					b.Unlock(lock)
				} else {
					b.Write(addr(blk))
				}
			default:
				b.Read(addr(blk))
			}
		}
		if sync {
			b.Barrier(addr(int64(blocks) + 8))
		}
		streams[p] = b.Refs()
	}
	return &tango.Workload{Name: "stress", Streams: streams}
}

// drawFaults samples one per-trial fault mix for "-faults campaign":
// drop/dup/delay/outage rates spanning none to aggressive, re-drawn until
// at least one dimension is live.
func drawFaults(rng *rand.Rand) mesh.FaultConfig {
	rates := []float64{0, 1e-4, 1e-3, 1e-2}
	delayPs := []float64{0, 0.01, 0.05, 0.2}
	delayMax := []sim.Time{8, 32, 128}
	outPs := []float64{0, 0.02, 0.1}
	outLens := []sim.Time{64, 256}
	for {
		fc := mesh.FaultConfig{
			Drop:   rates[rng.Intn(len(rates))],
			Dup:    rates[rng.Intn(len(rates))],
			DelayP: delayPs[rng.Intn(len(delayPs))],
		}
		if fc.DelayP > 0 {
			fc.DelayMax = delayMax[rng.Intn(len(delayMax))]
		}
		if p := outPs[rng.Intn(len(outPs))]; p > 0 {
			fc.OutageP = p
			fc.OutageLen = outLens[rng.Intn(len(outLens))]
			fc.OutageEvery = 2048
		}
		if fc.Enabled() {
			return fc
		}
	}
}

// RunTrial derives one configuration from the trial seed, runs it with
// the checker on, and records everything the checker flagged.
func RunTrial(id int, seed int64, o Options) Trial {
	rng := rand.New(rand.NewSource(seed))
	t := Trial{ID: id, Seed: seed}

	si := rng.Intn(len(schemes))
	procs := o.Procs[rng.Intn(len(o.Procs))]
	ppc := 1
	if procs%2 == 0 && rng.Intn(2) == 1 {
		ppc = 2
	}
	sync := rng.Intn(3) > 0

	cfg := machine.Config{
		Procs:           procs,
		ProcsPerCluster: ppc,
		Block:           16,
		Cache:           cache.Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
		Scheme:          schemes[si],
		Timing:          machine.DefaultTiming(),
		Seed:            seed,
		Check:           o.Check,
		Shards:          o.Shards,
		Fault:           o.Fault,
		Deadline:        o.Deadline,
	}
	dir := "fullmap"
	switch rng.Intn(4) {
	case 0: // full map
	case 1, 2: // tiny sparse directory: constant replacement recalls
		pi := rng.Intn(len(policies))
		cfg.Sparse = machine.SparseConfig{
			Entries: 4 << rng.Intn(3),
			Assoc:   1 << rng.Intn(3),
			Policy:  policies[pi],
		}
		dir = fmt.Sprintf("sparse%d/a%d/%s", cfg.Sparse.Entries, cfg.Sparse.Assoc, policyNames[pi])
	case 3: // two-level overflow directory
		cfg.Overflow = &machine.OverflowDirConfig{Ptrs: 1, WideEntries: 4, Assoc: 2}
		dir = "overflow"
	}
	t.Desc = fmt.Sprintf("scheme=%s procs=%d ppc=%d dir=%s sync=%v",
		schemeNames[si], procs, ppc, dir, sync)

	switch {
	case o.Wedge:
		// Unrecoverable: every message dropped, tiny retry budget. The
		// liveness watchdog must abort with its diagnostic dump.
		cfg.Mesh.Faults = mesh.FaultConfig{Drop: 1}
		cfg.Retry = machine.RetryConfig{MaxRetries: 2}
		cfg.StuckBudget = 1 << 16
	case o.Faults == "campaign":
		cfg.Mesh.Faults = drawFaults(rng)
	case o.Faults != "":
		fc, err := mesh.ParseFaults(o.Faults)
		if err != nil {
			t.Err = err
			return t
		}
		cfg.Mesh.Faults = fc
	}
	if cfg.Mesh.Faults.Enabled() {
		t.Desc += " faults=" + cfg.Mesh.Faults.String()
	}

	w := Workload(rng, procs, o.Refs, o.Blocks, sync)
	m, err := machine.New(cfg)
	if err != nil {
		t.Err = err
		return t
	}
	r, err := m.Run(w)
	if err != nil {
		t.Err = err
		return t
	}
	t.ExecTime = r.ExecTime
	t.Caught = m.Violations()
	t.CohErr = m.CheckCoherence()
	return t
}

// RunTrials executes the campaign and returns the trials plus whether
// anything was caught. It is the testable core of cmd/protostress.
func RunTrials(o Options) ([]Trial, bool) {
	pool := runner.New(o.Parallel)
	trials := runner.Collect(pool, o.Trials, func(i int) Trial {
		return RunTrial(i, SeedFor(o.Seed, i, o.Trials), o)
	})
	caught := false
	for i := range trials {
		if trials[i].Failed() {
			caught = true
		}
	}
	return trials, caught
}

// Render writes one trial's report block — the summary line for verbose
// (or failed) trials plus error, violation and replay detail for failed
// ones — exactly as cmd/protostress prints it.
func (t *Trial) Render(w io.Writer, o Options) {
	if o.Verbose || t.Failed() {
		fmt.Fprintf(w, "%s\n", t.Line())
	}
	if t.Err != nil {
		fmt.Fprintf(w, "  run error: %v\n", t.Err)
	}
	for _, v := range t.Caught {
		fmt.Fprintf(w, "  violation: %s\n", v)
	}
	if t.CohErr != nil {
		fmt.Fprintf(w, "  quiescence sweep: %v\n", t.CohErr)
	}
	if t.Failed() {
		fmt.Fprintf(w, "  replay: %s\n", replay.Line{
			Trials: 1, Seed: t.Seed, Procs: o.Procs, Refs: o.Refs, Blocks: o.Blocks,
			Fault: o.Fault.String(), Faults: o.Faults, Wedge: o.Wedge,
			NoCheck: !o.Check, Shards: o.Shards, Verbose: true,
		})
	}
}

// Report renders every trial's block to w.
func Report(w io.Writer, trials []Trial, o Options) {
	for i := range trials {
		trials[i].Render(w, o)
	}
}

// CountFailed returns how many trials found something.
func CountFailed(trials []Trial) int {
	n := 0
	for i := range trials {
		if trials[i].Failed() {
			n++
		}
	}
	return n
}
