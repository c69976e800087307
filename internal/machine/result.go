package machine

import (
	"fmt"
	"strings"

	"dircoh/internal/cache"
	"dircoh/internal/mesh"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
)

// Result holds every measurement of one simulation run.
type Result struct {
	Scheme       string
	ExecTime     sim.Time        // max processor finish time (cycles)
	Msgs         stats.MsgCounts // the paper's four message classes
	InvalHist    stats.Histogram // invalidations per invalidation event
	ReplHist     stats.Histogram // invalidations per sparse replacement
	Net          mesh.Stats
	Dir          sparse.Stats // aggregated over clusters
	Cache        cache.Stats  // aggregated over processors
	Replacements uint64       // sparse-directory entry replacements
	LockRetries  uint64
	MergedReads  uint64  // read misses merged onto an outstanding request (RAC)
	BusUtil      float64 // mean cluster-bus occupancy over the run
	DirUtil      float64 // mean directory-controller occupancy over the run
	ReadLat      stats.LatHist
	WriteLat     stats.LatHist
	RACPeak      int
	DirPeak      int // peak simultaneously-live directory entries, machine-wide

	// Directory-entry cost of the scheme this machine ran, so sweeps and
	// benches can report memory overhead next to traffic without
	// re-deriving the scheme from its name.
	DirEntryBits  int // architectural bits per entry (Scheme.BitsPerEntry)
	DirEntryBytes int // simulator heap bytes per entry (Scheme.EntryBytes)
}

// result builds the Result from the machine's metrics-registry snapshot
// plus the exact per-count histograms the figures need. The paper's four
// message classes are sums of the per-kind "msg.<kind>" counters; the
// directory aggregate reads the shared "dir.*" counters (summing the
// per-cluster directories' Stats() would double-count, since they record
// into their shard's registry). Every shard merged into shard 0 at
// quiescence, so these reads cover the whole machine at any width.
func (m *Machine) result() *Result {
	snap := m.MetricsSnapshot()
	r0 := m.res[0]
	var msgs stats.MsgCounts
	for k := 0; k < protocol.NumMsgKinds; k++ {
		kind := protocol.MsgKind(k)
		msgs[kind.Class()] += snap.Counter(kind.MetricName())
	}
	r := &Result{
		Scheme:        m.scheme.Name(),
		DirEntryBits:  m.scheme.BitsPerEntry(),
		DirEntryBytes: m.scheme.EntryBytes(),
		Msgs:          msgs,
		InvalHist:     r0.invalHist,
		ReplHist:      r0.replHist,
		Net: mesh.Stats{
			Messages: snap.Counter("mesh.msgs"),
			Hops:     snap.Counter("mesh.hops"),
			MaxHops:  int(snap.GaugeMax["mesh.maxhops"]),
			Stalls:   snap.Counter("mesh.stalls"),
		},
		LockRetries: snap.Counter("lock.retries"),
		MergedReads: snap.Counter("rac.merged.reads"),
		ReadLat:     r0.readLat,
		WriteLat:    r0.writeLat,
		Dir: sparse.Stats{
			Lookups:      snap.Counter("dir.lookup"),
			Hits:         snap.Counter("dir.hit"),
			Allocations:  snap.Counter("dir.alloc"),
			Replacements: snap.Counter("sparse.evict"),
		},
	}
	for _, p := range m.procs {
		if p.finish > r.ExecTime {
			r.ExecTime = p.finish
		}
		cs := p.h.Stats()
		r.Cache.Reads += cs.Reads
		r.Cache.Writes += cs.Writes
		r.Cache.L1Hits += cs.L1Hits
		r.Cache.L2Hits += cs.L2Hits
		r.Cache.Misses += cs.Misses
		r.Cache.Upgrades += cs.Upgrades
		r.Cache.Evictions += cs.Evictions
		r.Cache.DirtyEv += cs.DirtyEv
	}
	for _, c := range m.clusters {
		if peak := c.rac.Peak(); peak > r.RACPeak {
			r.RACPeak = peak
		}
		r.DirPeak += c.dir.PeakEntries()
		r.BusUtil += float64(c.busBusy)
		r.DirUtil += float64(c.dirBusy)
	}
	if r.ExecTime > 0 {
		denom := float64(r.ExecTime) * float64(len(m.clusters))
		r.BusUtil /= denom
		r.DirUtil /= denom
	}
	r.Replacements = r.Dir.Replacements
	return r
}

// Summary renders the run in the style of the paper's figures: execution
// time plus the message breakdown (requests incl. writebacks, replies,
// invalidations + acknowledgements).
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s: exec %d cycles\n", r.Scheme, r.ExecTime)
	fmt.Fprintf(&b, "  messages: total %d  requests %d  replies %d  inval+ack %d\n",
		r.Msgs.Total(), r.Msgs[stats.Request], r.Msgs[stats.Reply], r.Msgs.InvalAck())
	fmt.Fprintf(&b, "  invalidation events %d, avg invals/event %.2f\n",
		r.InvalHist.Events(), r.InvalHist.Mean())
	if r.Replacements > 0 {
		fmt.Fprintf(&b, "  sparse replacements %d (RAC peak %d)\n", r.Replacements, r.RACPeak)
	}
	fmt.Fprintf(&b, "  latency: reads %.1f cycles avg, writes %.1f; bus util %.1f%%, dir util %.1f%%\n",
		r.ReadLat.Mean(), r.WriteLat.Mean(), 100*r.BusUtil, 100*r.DirUtil)
	return b.String()
}
