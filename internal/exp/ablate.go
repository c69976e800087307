package exp

import (
	"fmt"

	"dircoh/internal/core"
	"dircoh/internal/machine"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// This file holds ablation studies beyond the paper's figures: they probe
// the design choices the paper fixes by construction — the coarse vector's
// region size r, the pointer count i, and the §7 queued-lock grant
// behaviour under contention.

// RegionSweep varies the coarse vector's region size r on one application
// (with i = 3 pointers, as in the paper) and reports traffic against the
// full bit vector. Larger regions approach the broadcast scheme; region
// size 1 matches the full vector's precision at overflow.
func (s *Session) RegionSweep(app string, procs int) ([]Run, *stats.Table) {
	regions := []int{1, 2, 4, 8, 16, 32}
	w := Workload(app, procs)
	runs := s.collectRuns(len(regions)+1, func(i int) Run {
		if i == 0 {
			return s.runApp(app, w, "full vector", machine.FullVec)
		}
		r := regions[i-1]
		return s.runApp(app, w, fmt.Sprintf("Dir3CV%d", r),
			func(n int) (core.Scheme, error) { return core.NewCoarseVector(3, r, n) })
	})
	base := runs[0]
	tb := stats.NewTable("scheme", "region", "msgs(norm)", "inval+ack", "avg invals/event")
	tb.AddRow("Dir32", "-", "1.000",
		fmt.Sprintf("%d", base.Result.Msgs.InvalAck()),
		fmt.Sprintf("%.2f", base.Result.InvalHist.Mean()))
	for i, run := range runs[1:] {
		tb.AddRow(
			run.Label,
			fmt.Sprintf("%d", regions[i]),
			fmt.Sprintf("%.3f", float64(run.Result.Msgs.Total())/float64(base.Result.Msgs.Total())),
			fmt.Sprintf("%d", run.Result.Msgs.InvalAck()),
			fmt.Sprintf("%.2f", run.Result.InvalHist.Mean()),
		)
	}
	return runs, tb
}

// PointerSweep varies the pointer count i for the broadcast, no-broadcast
// and coarse vector schemes on one application. It quantifies the paper's
// §5 choice of three pointers under a ~13% storage budget.
func (s *Session) PointerSweep(app string, procs int) ([]Run, *stats.Table) {
	kinds := []struct {
		name string
		f    func(i, n int) (core.Scheme, error)
	}{
		{"Dir_iB", func(i, n int) (core.Scheme, error) { return core.NewLimitedBroadcast(i, n) }},
		{"Dir_iNB", func(i, n int) (core.Scheme, error) { return core.NewLimitedNoBroadcast(i, n, core.VictimRandom, 11) }},
		{"Dir_iCV2", func(i, n int) (core.Scheme, error) { return core.NewCoarseVector(i, 2, n) }},
	}
	type spec struct {
		kind int // -1: the full-vector baseline
		ptrs int
	}
	specs := []spec{{kind: -1}}
	for k := range kinds {
		for _, i := range []int{1, 2, 3, 4, 6} {
			specs = append(specs, spec{kind: k, ptrs: i})
		}
	}
	w := Workload(app, procs)
	runs := s.collectRuns(len(specs), func(j int) Run {
		sp := specs[j]
		if sp.kind < 0 {
			return s.runApp(app, w, "full vector", machine.FullVec)
		}
		k := kinds[sp.kind]
		return s.runApp(app, w, fmt.Sprintf("%s i=%d", k.name, sp.ptrs),
			func(n int) (core.Scheme, error) { return k.f(sp.ptrs, n) })
	})
	base := runs[0]
	tb := stats.NewTable("scheme", "pointers", "msgs(norm)", "exec(norm)")
	for j, run := range runs[1:] {
		tb.AddRow(
			kinds[specs[j+1].kind].name,
			fmt.Sprintf("%d", specs[j+1].ptrs),
			fmt.Sprintf("%.3f", float64(run.Result.Msgs.Total())/float64(base.Result.Msgs.Total())),
			fmt.Sprintf("%.3f", float64(run.Result.ExecTime)/float64(base.Result.ExecTime)),
		)
	}
	return runs, tb
}

// DirectoryComparison evaluates the §7 alternative directory organization
// the paper leaves for future work — small per-block entries overflowing
// into a cache of wide entries — against the full-map and sparse
// organizations, on one application.
func (s *Session) DirectoryComparison(app string, procs int) ([]Run, *stats.Table) {
	type cfgRow struct {
		label string
		cfg   machine.Config
	}
	base := machine.DefaultConfig(machine.FullVec)
	base.Procs = procs
	cvCfg := machine.DefaultConfig(machine.CoarseVec2)
	cvCfg.Procs = procs
	sparseCfg := machine.DefaultConfig(machine.FullVec)
	sparseCfg.Procs = procs
	sparseCfg.Sparse = machine.SparseConfig{
		Entries: 4 * (sparseCfg.Cache.L2Size / sparseCfg.Block) * procs / sparseCfg.Clusters() / 4,
		Assoc:   4,
	}
	ovCfg := machine.DefaultConfig(machine.FullVec)
	ovCfg.Procs = procs
	ovCfg.Overflow = &machine.OverflowDirConfig{Ptrs: 2, WideEntries: 64, Assoc: 4}
	ovTight := machine.DefaultConfig(machine.FullVec)
	ovTight.Procs = procs
	ovTight.Overflow = &machine.OverflowDirConfig{Ptrs: 2, WideEntries: 8, Assoc: 4}
	rows := []cfgRow{
		{"full map, Dir32", base},
		{"full map, Dir3CV2", cvCfg},
		{"sparse, Dir32", sparseCfg},
		{"overflow, Dir2 + 64 wide", ovCfg},
		{"overflow, Dir2 + 8 wide", ovTight},
	}
	w := Workload(app, procs)
	runs := s.collectRuns(len(rows), func(i int) Run {
		return s.runWorkload(app, w, rows[i].cfg, rows[i].label)
	})
	tb := stats.NewTable("directory", "exec(norm)", "msgs(norm)", "inval+ack", "replacements")
	baseExec := float64(runs[0].Result.ExecTime)
	baseMsgs := float64(runs[0].Result.Msgs.Total())
	for i, r := range runs {
		tb.AddRow(
			rows[i].label,
			fmt.Sprintf("%.3f", float64(r.Result.ExecTime)/baseExec),
			fmt.Sprintf("%.3f", float64(r.Result.Msgs.Total())/baseMsgs),
			fmt.Sprintf("%d", r.Result.Msgs.InvalAck()),
			fmt.Sprintf("%d", r.Result.Replacements),
		)
	}
	return runs, tb
}

// lockStorm builds a workload in which every processor acquires the same
// lock rounds times, touching one shared word inside the critical section
// — the §7 hot-spot scenario.
func lockStorm(procs, rounds int) *tango.Workload {
	alloc := tango.NewAllocator(16)
	lock := alloc.Words(2)
	data := alloc.Words(2)
	builders := make([]tango.Builder, procs)
	for p := range builders {
		for r := 0; r < rounds; r++ {
			builders[p].Lock(lock.Word(0))
			builders[p].Read(data.Word(0))
			builders[p].Write(data.Word(0))
			builders[p].Unlock(lock.Word(0))
		}
	}
	streams := make([][]tango.Ref, procs)
	for i := range builders {
		streams[i] = builders[i].Refs()
	}
	return &tango.Workload{Name: "lock-storm", Streams: streams, SharedBytes: alloc.TotalBytes()}
}

// LockContention compares the queued directory lock (§7) across waiter
// representations under an all-processors hot lock: the full vector grants
// one node per release; a coarse vector wakes a region whose nodes
// re-contend (extra LockWake/LockReq traffic but no global hot spot); a
// broadcast waiter set wakes everyone.
func (s *Session) LockContention(procs, rounds int) ([]Run, *stats.Table) {
	schemes := []struct {
		label string
		f     machine.SchemeFactory
	}{
		{"Full Vector", machine.FullVec},
		{"Coarse Vector", machine.CoarseVec2},
		{"Broadcast", machine.Broadcast},
	}
	w := lockStorm(procs, rounds)
	runs := s.collectRuns(len(schemes), func(i int) Run {
		return s.runApp("lock-storm", w, schemes[i].label, schemes[i].f)
	})
	tb := stats.NewTable("waiter scheme", "exec", "msgs", "lock retries")
	for _, run := range runs {
		tb.AddRow(
			run.Label,
			fmt.Sprintf("%d", run.Result.ExecTime),
			fmt.Sprintf("%d", run.Result.Msgs.Total()),
			fmt.Sprintf("%d", run.Result.LockRetries),
		)
	}
	return runs, tb
}
