package exp

import (
	"fmt"

	"dircoh/internal/core"
	"dircoh/internal/machine"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// ScaleAxis is the beyond-64 cluster axis of the scale study: the machine
// sizes the paper's Table 1 extrapolates to, where the full bit vector's
// per-entry cost stops being affordable.
var ScaleAxis = []int{256, 1024, 4096}

// ScaleSchemes is the roster the scale study compares. The full vector is
// the traffic reference (and the memory strawman); Dir3CV2 and the
// adaptive two-level directory are the compact encodings; Dir3B shows
// where plain broadcast lands once the pointers overflow.
var ScaleSchemes = []struct {
	Label   string
	Factory machine.SchemeFactory
}{
	{"Full Vector", machine.FullVec},
	{"Coarse Vector", machine.CoarseVec2},
	{"Two Level", machine.TwoLevel},
	{"Broadcast", machine.Broadcast},
}

// ScaleProbe builds the synthetic workload of the scale study. One hot
// block is read by every second processor of a window spanning three
// two-level regions — sharing that is clustered (few regions) but sparse
// within each region, the regime that separates the encodings: the full
// vector and the two-level directory invalidate the sharers exactly
// (the writer's own region takes the fourth slot), the region-2 coarse
// vector pays double (each occupied pair region expands to both nodes),
// and Dir3B broadcasts to the whole machine. A processor outside the
// window rewrites the hot block every round; tree barriers separate the
// read and write phases so the fan-out is deterministic. Every processor
// also writes one private block per round, so the directory holds more
// than the hot entry.
func ScaleProbe(procs, rounds int) *tango.Workload {
	const block = 16
	window := 3 * core.AdaptiveRegion(procs)
	if window > procs {
		window = procs
	}
	writer := window % procs // first node outside the window (node 0 on tiny machines)
	hot := int64(0)
	priv := func(p int) int64 { return int64(1+p) * block }
	barrierBase := int64(1+procs) * block
	streams := make([][]tango.Ref, procs)
	for p := range streams {
		var b tango.Builder
		for r := 0; r < rounds; r++ {
			if p < window && p%2 == 0 {
				b.Read(hot)
			}
			b.Write(priv(p))
			b.Barrier(barrierBase + int64(2*r)*block)
			if p == writer {
				b.Write(hot)
			}
			b.Barrier(barrierBase + int64(2*r+1)*block)
		}
		streams[p] = b.Refs()
	}
	return &tango.Workload{
		Name:        "scale-probe",
		Streams:     streams,
		SharedBytes: barrierBase + int64(2*rounds)*block,
	}
}

// ScaleStudy measures the compact directory encodings past the paper's
// 64-processor axis: for each cluster count it runs the scale probe under
// every ScaleSchemes entry and reports per-entry directory cost next to
// execution time and traffic, normalized to the full vector at the same
// size. One processor per cluster, tree barriers (a central barrier is a
// hot spot at 4096 clusters).
func (s *Session) ScaleStudy(clusters []int, rounds int) ([]Run, *stats.Table) {
	type spec struct {
		n      int
		scheme int
		w      *tango.Workload // the probe at n clusters, shared by its schemes' runs
	}
	var specs []spec
	for _, n := range clusters {
		w := ScaleProbe(n, rounds)
		for si := range ScaleSchemes {
			specs = append(specs, spec{n, si, w})
		}
	}
	runs := s.collectRuns(len(specs), func(i int) Run {
		sp := specs[i]
		cfg := machine.DefaultConfig(ScaleSchemes[sp.scheme].Factory)
		cfg.Procs = sp.n
		cfg.Barrier = machine.TreeBarrier
		return s.runWorkload("scale-probe", sp.w, cfg,
			fmt.Sprintf("%s n=%d", ScaleSchemes[sp.scheme].Label, sp.n))
	})
	tb := stats.NewTable("clusters", "scheme", "entry bits", "entry bytes", "exec", "exec(norm)", "msgs", "msgs(norm)", "inval+ack")
	for i, r := range runs {
		sp := specs[i]
		base := runs[i-sp.scheme].Result // full vector at the same cluster count
		res := r.Result
		tb.AddRow(
			fmt.Sprintf("%d", sp.n),
			ScaleSchemes[sp.scheme].Label,
			fmt.Sprintf("%d", res.DirEntryBits),
			fmt.Sprintf("%d", res.DirEntryBytes),
			fmt.Sprintf("%d", res.ExecTime),
			fmt.Sprintf("%.3f", float64(res.ExecTime)/float64(base.ExecTime)),
			fmt.Sprintf("%d", res.Msgs.Total()),
			fmt.Sprintf("%.3f", float64(res.Msgs.Total())/float64(base.Msgs.Total())),
			fmt.Sprintf("%d", res.Msgs.InvalAck()),
		)
	}
	return runs, tb
}
