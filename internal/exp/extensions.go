package exp

import (
	"fmt"

	"dircoh/internal/machine"
	"dircoh/internal/sim"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// OccupancyStudy quantifies §4.2's motivating observation — "at any given
// time most memory blocks are not cached by any processor and the
// corresponding directory entries are empty" — by measuring the peak
// number of simultaneously live entries in a full-map directory for each
// application, against the directory a real machine would have to
// provision (one entry per block of 16 MB memory per processor).
func (s *Session) OccupancyStudy(procs int) ([]Run, *stats.Table) {
	const memPerProc = 16 << 20 // the paper's Table 1 machines
	apps := []string{"LU", "DWF", "MP3D", "LocusRoute"}
	runs := s.collectRuns(len(apps), func(i int) Run {
		return s.RunApp(apps[i], procs, "occupancy "+apps[i], machine.FullVec)
	})
	tb := stats.NewTable("application", "peak live entries", "cache blocks", "memory blocks", "live fraction")
	for i, r := range runs {
		app := apps[i]
		cfg := machine.DefaultConfig(machine.FullVec)
		cacheBlocks := cfg.Cache.L2Size / cfg.Block * procs
		memBlocks := int64(memPerProc) / int64(cfg.Block) * int64(procs)
		tb.AddRow(
			app,
			fmt.Sprintf("%d", r.Result.DirPeak),
			fmt.Sprintf("%d", cacheBlocks),
			fmt.Sprintf("%d", memBlocks),
			fmt.Sprintf("%.4f%%", 100*float64(r.Result.DirPeak)/float64(memBlocks)),
		)
	}
	return runs, tb
}

// BlockSizeStudy quantifies the §3.1 remark that growing the cache block
// is an unattractive way to cut directory overhead: the per-block state
// cost halves with each doubling, but false sharing inflates coherence
// traffic ("increasing the block size increases the chances of
// false-sharing and may significantly increase the coherence traffic").
func (s *Session) BlockSizeStudy(app string, procs int, blockSizes []int) ([]Run, *stats.Table) {
	cfgFor := func(bs int) machine.Config {
		cfg := machine.DefaultConfig(machine.FullVec)
		cfg.Procs = procs
		cfg.Block = bs
		cfg.Cache.Block = bs
		return cfg
	}
	w := Workload(app, procs)
	runs := s.collectRuns(len(blockSizes), func(i int) Run {
		return s.runWorkload(app, w, cfgFor(blockSizes[i]), fmt.Sprintf("block=%d", blockSizes[i]))
	})
	tb := stats.NewTable("block", "overhead", "exec(norm)", "msgs(norm)", "inval+ack", "misses")
	base := runs[0].Result
	for i, r := range runs {
		bs := blockSizes[i]
		cfg := cfgFor(bs)
		overheadBits := cfg.Clusters() + 1 // full vector + dirty, per entry
		tb.AddRow(
			fmt.Sprintf("%dB", bs),
			fmt.Sprintf("%.1f%%", 100*float64(overheadBits)/float64(bs*8)),
			fmt.Sprintf("%.3f", float64(r.Result.ExecTime)/float64(base.ExecTime)),
			fmt.Sprintf("%.3f", float64(r.Result.Msgs.Total())/float64(base.Msgs.Total())),
			fmt.Sprintf("%d", r.Result.Msgs.InvalAck()),
			fmt.Sprintf("%d", r.Result.Cache.Misses),
		)
	}
	return runs, tb
}

// NetworkContention reruns the Figure 10 comparison with finite network
// ejection bandwidth (mesh port occupancy). With contention, the broadcast
// scheme's extraneous invalidations stop being free: its execution time
// degrades visibly, which is the regime the paper's "real DASH system"
// remark anticipates ("we consequently expect the performance degradation
// due to an increased number of messages to be larger than shown here").
func (s *Session) NetworkContention(app string, procs int, portTimes []sim.Time) ([]Run, *stats.Table) {
	schemes := []struct {
		label string
		f     machine.SchemeFactory
	}{
		{"Full Vector", machine.FullVec},
		{"Coarse Vector", machine.CoarseVec2},
		{"Broadcast", machine.Broadcast},
	}
	type spec struct {
		pt     sim.Time
		scheme int
	}
	var specs []spec
	for _, pt := range portTimes {
		for si := range schemes {
			specs = append(specs, spec{pt, si})
		}
	}
	w := Workload(app, procs)
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		cfg := machine.DefaultConfig(schemes[sp.scheme].f)
		cfg.Procs = procs
		cfg.Mesh.PortTime = sp.pt
		return s.runWorkload(app, w, cfg,
			fmt.Sprintf("%s port=%d", schemes[sp.scheme].label, sp.pt))
	})
	tb := stats.NewTable("port time", "scheme", "exec", "exec(norm)", "net stalls")
	for i, r := range runs {
		sp := specs[i]
		base := runs[i-sp.scheme].Result // each port-time group normalizes to its full vector
		tb.AddRow(
			fmt.Sprintf("%d", sp.pt),
			schemes[sp.scheme].label,
			fmt.Sprintf("%d", r.Result.ExecTime),
			fmt.Sprintf("%.3f", float64(r.Result.ExecTime)/float64(base.ExecTime)),
			fmt.Sprintf("%d", r.Result.Net.Stalls),
		)
	}
	return runs, tb
}

// barrierStorm builds a workload of repeated global barriers with a token
// read between them.
func barrierStorm(procs, rounds int) *tango.Workload {
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var b tango.Builder
		for r := 0; r < rounds; r++ {
			b.Read(int64(p) * 16)
			b.Barrier(int64(10000) * 16)
		}
		streams[p] = b.Refs()
	}
	return &tango.Workload{Name: "barrier-storm", Streams: streams, SharedBytes: int64(procs+1) * 16}
}

// BarrierStudy compares the central barrier against the combining tree
// under repeated global synchronization, with and without network
// ejection-port contention. The central barrier funnels every arrival and
// release through one cluster — a hot spot the tree avoids.
func (s *Session) BarrierStudy(procs, rounds int, portTimes []sim.Time) ([]Run, *stats.Table) {
	type spec struct {
		pt   sim.Time
		kind machine.BarrierKind
	}
	var specs []spec
	for _, pt := range portTimes {
		for _, kind := range []machine.BarrierKind{machine.CentralBarrier, machine.TreeBarrier} {
			specs = append(specs, spec{pt, kind})
		}
	}
	w := barrierStorm(procs, rounds)
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		cfg := machine.DefaultConfig(machine.FullVec)
		cfg.Procs = procs
		cfg.Barrier = sp.kind
		cfg.Mesh.PortTime = sp.pt
		return s.runWorkload("barrier-storm", w, cfg,
			fmt.Sprintf("%v port=%d", sp.kind, sp.pt))
	})
	tb := stats.NewTable("barrier", "port time", "exec", "msgs", "net stalls")
	for i, r := range runs {
		tb.AddRow(
			specs[i].kind.String(),
			fmt.Sprintf("%d", specs[i].pt),
			fmt.Sprintf("%d", r.Result.ExecTime),
			fmt.Sprintf("%d", r.Result.Msgs.Total()),
			fmt.Sprintf("%d", r.Result.Net.Stalls),
		)
	}
	return runs, tb
}
