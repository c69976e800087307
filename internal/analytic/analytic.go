// Package analytic implements the paper's closed-form/Monte-Carlo models:
// the average-invalidations-vs-sharers curves of Figure 2 and the
// directory-memory-overhead arithmetic of Table 1 (and of the §5 sparse
// savings example).
package analytic

import (
	"fmt"
	"math/rand"

	"dircoh/internal/core"
	"dircoh/internal/stats"
)

// InvalCurve estimates, for each sharer count s = 1..nodes-1, the average
// number of invalidation messages a write to a block with s random sharers
// produces under the given scheme (Figure 2's methodology: "for each
// invalidation event, the sharers were randomly chosen and the number of
// invalidations required was recorded").
//
// The writer is drawn from the non-sharers; the writer's own cluster and
// the home cluster are excluded from the targets, as DASH excludes them
// ("the home cluster and the new owning cluster do not require an
// invalidation", §6.1).
func InvalCurve(scheme core.Scheme, trials int, seed int64) []float64 {
	n := scheme.Nodes()
	if trials <= 0 {
		panic(&ArgError{Name: "trials", Value: trials})
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n) // out[s] = average invals with s sharers
	perm := make([]int, n)
	for s := 1; s < n; s++ {
		var total uint64
		for t := 0; t < trials; t++ {
			// Random sharer set of size s plus a distinct writer.
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			e := scheme.NewEntry()
			for _, node := range perm[:s] {
				e.AddSharer(node)
			}
			writer := perm[s]
			home := rng.Intn(n)
			targets := e.Sharers()
			targets.Remove(writer)
			if home != writer {
				targets.Remove(home)
			}
			total += uint64(targets.Count())
		}
		out[s] = float64(total) / float64(trials)
	}
	return out
}

// Fig2 is Figure 2 at one machine size (a: 32 nodes with Dir3CV2, b: 64
// nodes with Dir3CV4): each scheme's average-invalidations curve, computed
// once and drawn both as a table and as an ASCII plot.
type Fig2 struct {
	nodes  int
	names  []string
	curves [][]float64 // curves[i][s] = scheme i's average invalidations with s sharers
}

// NewFig2 computes Figure 2's curves for Dir3B, Dir3X, Dir3CV_r and the
// full bit vector on a machine of the given node count.
func NewFig2(nodes, trials int, seed int64) *Fig2 {
	region := 2
	if nodes >= 64 {
		region = 4
	}
	schemes := []core.Scheme{
		core.Must(core.NewLimitedBroadcast(3, nodes)),
		core.Must(core.NewSuperset(3, nodes)),
		core.Must(core.NewCoarseVector(3, region, nodes)),
		core.Must(core.NewFullVector(nodes)),
	}
	f := &Fig2{nodes: nodes}
	for _, s := range schemes {
		f.names = append(f.names, s.Name())
		f.curves = append(f.curves, InvalCurve(s, trials, seed))
	}
	return f
}

// Table renders the curves as a table of average invalidations per sharer
// count.
func (f *Fig2) Table() *stats.Table {
	tb := stats.NewTable(append([]string{"sharers"}, f.names...)...)
	for s := 1; s < f.nodes; s++ {
		row := []string{fmt.Sprintf("%d", s)}
		for _, c := range f.curves {
			row = append(row, fmt.Sprintf("%.2f", c[s]))
		}
		tb.AddRow(row...)
	}
	return tb
}

// Plot draws the curves as an ASCII chart over sharer counts 1..nodes-1.
func (f *Fig2) Plot() string {
	xs := make([]int, 0, f.nodes-1)
	for s := 1; s < f.nodes; s++ {
		xs = append(xs, s)
	}
	p := stats.NewPlot("", "number of sharers", "invalidations per write")
	for i, c := range f.curves {
		p.AddSeries(f.names[i], xs, c[1:f.nodes])
	}
	return p.Render(64, 20)
}

// OverheadConfig describes one machine row of Table 1.
type OverheadConfig struct {
	Procs             int
	ProcsPerCluster   int
	MemBytesPerProc   int64
	CacheBytesPerProc int64
	BlockBytes        int
	Scheme            core.Scheme // sized for Clusters() nodes
	Sparsity          int         // main-memory blocks per directory entry (0 or 1 = full directory)
}

// Clusters returns the cluster count of the configuration.
func (c *OverheadConfig) Clusters() int { return c.Procs / c.ProcsPerCluster }

// OverheadResult is the computed storage accounting.
type OverheadResult struct {
	StateBits   int     // directory state bits per entry (incl. dirty)
	TagBits     int     // sparse tag bits per entry (0 for full directories)
	EntryBits   int     // total bits per entry
	Entries     int64   // directory entries per cluster
	OverheadPct float64 // directory bits as % of main-memory bits
	Savings     float64 // storage ratio vs the same scheme non-sparse
}

func log2ceil(v int64) int {
	b := 0
	for x := v - 1; x > 0; x >>= 1 {
		b++
	}
	return b
}

// Overhead computes the Table 1 accounting for one configuration.
func Overhead(cfg OverheadConfig) OverheadResult {
	if cfg.Sparsity <= 0 {
		cfg.Sparsity = 1
	}
	blocksPerCluster := cfg.MemBytesPerProc * int64(cfg.ProcsPerCluster) / int64(cfg.BlockBytes)
	var r OverheadResult
	r.StateBits = cfg.Scheme.BitsPerEntry()
	if cfg.Sparsity > 1 {
		r.TagBits = log2ceil(int64(cfg.Sparsity))
	}
	r.EntryBits = r.StateBits + r.TagBits
	r.Entries = blocksPerCluster / int64(cfg.Sparsity)
	memBits := blocksPerCluster * int64(cfg.BlockBytes) * 8
	dirBits := r.Entries * int64(r.EntryBits)
	r.OverheadPct = 100 * float64(dirBits) / float64(memBits)
	nonSparseBits := blocksPerCluster * int64(r.StateBits)
	r.Savings = float64(nonSparseBits) / float64(dirBits)
	return r
}

// Table1Scheme returns the paper's Table 1 scheme choice and sparsity for
// a machine of the given processor count (4 processors per cluster): small
// machines afford a full, non-sparse bit vector; mid-size machines keep
// the full vector but go sparse; large machines need both sparsity and a
// coarse vector. This is the rule the paper's three sample rows instantiate
// at 64, 256 and 1024 processors, stated once so the table extends to any
// machine size instead of hardcoding the 1024-processor endpoint.
func Table1Scheme(procs int) (scheme core.Scheme, sparsity int, label string) {
	clusters := procs / 4
	switch {
	case procs <= 64:
		return core.Must(core.NewFullVector(clusters)), 1, fmt.Sprintf("Dir%d", clusters)
	case procs <= 256:
		return core.Must(core.NewFullVector(clusters)), 4, fmt.Sprintf("sparse Dir%d", clusters)
	default:
		return core.Must(core.NewCoarseVector(8, 4, clusters)), 4, "sparse Dir8CV4"
	}
}

// Table1 reproduces the paper's Table 1: sample machine configurations
// with 16 MB of memory and 256 KB of cache per processor, 16-byte blocks
// and ≈13% directory overhead throughout.
func Table1() *stats.Table {
	return Table1For([]int{64, 256, 1024})
}

// Table1For renders the Table 1 accounting for an arbitrary axis of
// processor counts, choosing each row's scheme via Table1Scheme — the
// parameterized form that extends the paper's table to 4096 processors
// and beyond.
func Table1For(procAxis []int) *stats.Table {
	tb := stats.NewTable("clusters", "procs", "memory(MB)", "cache(MB)", "block(B)", "scheme", "sparsity", "overhead")
	for _, procs := range procAxis {
		scheme, sparsity, label := Table1Scheme(procs)
		cfg := OverheadConfig{
			Procs:             procs,
			ProcsPerCluster:   4,
			MemBytesPerProc:   16 << 20,
			CacheBytesPerProc: 256 << 10,
			BlockBytes:        16,
			Scheme:            scheme,
			Sparsity:          sparsity,
		}
		r := Overhead(cfg)
		tb.AddRow(
			fmt.Sprintf("%d", cfg.Clusters()),
			fmt.Sprintf("%d", procs),
			fmt.Sprintf("%d", int64(procs)*16),
			fmt.Sprintf("%.0f", float64(procs)*0.25),
			"16",
			label,
			fmt.Sprintf("%d", sparsity),
			fmt.Sprintf("%.1f%%", r.OverheadPct),
		)
	}
	return tb
}

// EntryCostTable tabulates, for each cluster count on the axis, the
// hardware bits (BitsPerEntry) and simulator resident bytes (EntryBytes)
// of one directory entry under every registered scheme — the storage side
// of the scale story, regression-guarded by the sweep goldens.
func EntryCostTable(clusterAxis []int) *stats.Table {
	tb := stats.NewTable("clusters", "scheme", "bits/entry", "sim bytes/entry")
	for _, n := range clusterAxis {
		for _, name := range core.SchemeNames() {
			f := core.MustParse(name)
			s, err := f(n)
			if err != nil {
				tb.AddRow(fmt.Sprintf("%d", n), name, "-", "-")
				continue
			}
			tb.AddRow(
				fmt.Sprintf("%d", n),
				s.Name(),
				fmt.Sprintf("%d", s.BitsPerEntry()),
				fmt.Sprintf("%d", s.EntryBytes()),
			)
		}
	}
	return tb
}

// InvalAt estimates the average invalidation count for a single sharer
// count — one point of InvalCurve. The scale figures sample it at
// power-of-two sharer counts so the 1K–4K-node curves stay affordable
// (a full InvalCurve is O(nodes · trials · nodes)).
func InvalAt(scheme core.Scheme, sharers, trials int, seed int64) float64 {
	n := scheme.Nodes()
	if trials <= 0 {
		panic(&ArgError{Name: "trials", Value: trials})
	}
	if sharers < 1 || sharers >= n {
		panic(&ArgError{Name: "sharers", Value: sharers})
	}
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int, n)
	var total uint64
	for t := 0; t < trials; t++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		e := scheme.NewEntry()
		for _, node := range perm[:sharers] {
			e.AddSharer(node)
		}
		writer := perm[sharers]
		home := rng.Intn(n)
		targets := e.Sharers()
		targets.Remove(writer)
		if home != writer {
			targets.Remove(home)
		}
		total += uint64(targets.Count())
	}
	return float64(total) / float64(trials)
}

// SparseSavingsExample reproduces the §5 worked example: a full bit vector
// directory for 32 clusters at sparsity 64 keeps 32+1 state bits plus a
// 6-bit tag per entry, one entry per 64 blocks — a storage savings factor
// of about 54 versus the non-sparse directory.
func SparseSavingsExample() OverheadResult {
	cfg := OverheadConfig{
		Procs:             32,
		ProcsPerCluster:   1,
		MemBytesPerProc:   16 << 20,
		CacheBytesPerProc: 256 << 10,
		BlockBytes:        16,
		Scheme:            core.Must(core.NewFullVector(32)),
		Sparsity:          64,
	}
	return Overhead(cfg)
}
