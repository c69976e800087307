package exp

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"dircoh/internal/analytic"
	"dircoh/internal/sim"
	"dircoh/internal/stats"
)

// renderer runs one block's experiments and returns the bodies printed
// under its title, each a preformatted text ending in a newline.
type renderer func(s *Session, procs, trials int) []string

// block is one titled piece of a section: a figure, a table, or a group of
// histograms.
type block struct {
	title  string
	render renderer
}

// section is one entry of the evaluation: the key -only selects it by and
// its blocks in print order.
type section struct {
	key    string
	blocks []block
}

// table wraps a driver's table as a block body, dropping its runs.
func table(_ []Run, tb *stats.Table) []string { return []string{tb.String()} }

// fig2 renders Figure 2 at one machine size: the table and the plot of the
// same Monte-Carlo curves, drawn with the fixed seed the sweep always uses.
func fig2(nodes int) renderer {
	return func(_ *Session, _, trials int) []string {
		f := analytic.NewFig2(nodes, trials, 1)
		return []string{f.Table().String(), f.Plot()}
	}
}

// schemeComparison renders one of Figures 7-10.
func schemeComparison(app string) renderer {
	return func(s *Session, procs, _ int) []string { return table(s.SchemeComparison(app, procs)) }
}

// sparsePerformance renders Figure 11 or 12.
func sparsePerformance(app string) renderer {
	return func(s *Session, procs, _ int) []string { return table(s.SparsePerformance(app, procs)) }
}

// table1 renders the paper's Table 1 and its §5 sparse savings example.
func table1(*Session, int, int) []string {
	ex := analytic.SparseSavingsExample()
	return []string{analytic.Table1().String(), fmt.Sprintf(
		"Sparse savings example (§5): full bit vector, 32 clusters, sparsity 64:\n"+
			"  %d state bits + %d tag bits per entry, one entry per 64 blocks\n"+
			"  storage savings factor vs non-sparse: %.1f\n",
		ex.StateBits, ex.TagBits, ex.Savings)}
}

// figs3to6 renders LocusRoute's invalidation distribution under each
// scheme of Figures 3-6.
func figs3to6(s *Session, procs, _ int) []string {
	var bodies []string
	for _, run := range s.Figs3to6(procs) {
		bodies = append(bodies, run.Result.InvalHist.Render(run.Label))
	}
	return bodies
}

// scaleAxis is the processor and cluster axis of the analytic beyond-64
// tables.
var scaleAxis = []int{64, 256, 1024, 4096}

// sections is the whole evaluation, in print order: the paper's figures
// and tables, the beyond-64 scale study, then the ablations. Job i of a
// sweep campaign renders the i-th selected section and a saved campaign
// replays its job list, so new sections are only ever appended.
var sections = []section{
	{"2", []block{
		{"Figure 2(a): average invalidations vs sharers, 32 processors", fig2(32)},
		{"Figure 2(b): average invalidations vs sharers, 64 processors", fig2(64)},
	}},
	{"t1", []block{{"Table 1: sample machine configurations", table1}}},
	{"t2", []block{{"Table 2: general application characteristics",
		func(s *Session, procs, _ int) []string { return []string{s.Table2(procs).String()} }}}},
	{"3-6", []block{{"Figures 3-6: invalidation distributions, LocusRoute", figs3to6}}},
	{"7-10", []block{
		{"Figure 7: performance for LU", schemeComparison("LU")},
		{"Figure 8: performance for DWF", schemeComparison("DWF")},
		{"Figure 9: performance for MP3D", schemeComparison("MP3D")},
		{"Figure 10: performance for LocusRoute", schemeComparison("LocusRoute")},
	}},
	{"11-12", []block{
		{"Figure 11: sparse directory performance for LU", sparsePerformance("LU")},
		{"Figure 12: sparse directory performance for DWF", sparsePerformance("DWF")},
	}},
	{"13", []block{{"Figure 13: effect of associativity in sparse directory (LU)",
		func(s *Session, procs, _ int) []string { return table(s.AssocSweep("LU", procs)) }}}},
	{"14", []block{{"Figure 14: effect of replacement policy in sparse directory (LU)",
		func(s *Session, procs, _ int) []string { return table(s.PolicySweep("LU", procs)) }}}},
	{"scale", []block{
		{"Beyond 64 processors: Table 1 extended to 4096-cluster machines",
			func(*Session, int, int) []string { return []string{analytic.Table1For(scaleAxis).String()} }},
		{"Beyond 64 processors: directory entry cost per scheme",
			func(*Session, int, int) []string { return []string{analytic.EntryCostTable(scaleAxis).String()} }},
	}},
	{"scale-sim", []block{{"Beyond 64 processors: simulated traffic at 256-4096 clusters",
		func(s *Session, _, _ int) []string { return table(s.ScaleStudy(ScaleAxis, 3)) }}}},
	{"region", []block{{"Ablation: coarse vector region size (Dir3CV_r, LocusRoute)",
		func(s *Session, procs, _ int) []string { return table(s.RegionSweep("LocusRoute", procs)) }}}},
	{"pointers", []block{{"Ablation: pointer budget (LocusRoute)",
		func(s *Session, procs, _ int) []string { return table(s.PointerSweep("LocusRoute", procs)) }}}},
	{"dir-org", []block{{"Ablation: directory organizations (§7 alternatives, LocusRoute)",
		func(s *Session, procs, _ int) []string { return table(s.DirectoryComparison("LocusRoute", procs)) }}}},
	{"lock", []block{{"Ablation: queued-lock hot spot (8 acquisitions of one lock per processor)",
		func(s *Session, procs, _ int) []string { return table(s.LockContention(procs, 8)) }}}},
	{"occupancy", []block{{"Ablation: directory occupancy (§4.2, full directories are nearly empty)",
		func(s *Session, procs, _ int) []string { return table(s.OccupancyStudy(procs)) }}}},
	{"port", []block{{"Ablation: network ejection-port contention (LocusRoute)",
		func(s *Session, procs, _ int) []string {
			return table(s.NetworkContention("LocusRoute", procs, []sim.Time{0, 4, 8}))
		}}}},
	{"block", []block{{"Ablation: block-size tradeoff (§3.1, MP3D)",
		func(s *Session, procs, _ int) []string {
			return table(s.BlockSizeStudy("MP3D", procs, []int{16, 32, 64}))
		}}}},
	{"barrier", []block{{"Ablation: barrier implementations under repeated global synchronization",
		func(s *Session, procs, _ int) []string { return table(s.BarrierStudy(procs, 8, []sim.Time{0, 8})) }}}},
}

// SweepSectionKeys lists every section's key in print order — the order
// cmd/sweep prints and the order the campaign service decomposes a sweep
// campaign into indexed jobs.
var SweepSectionKeys = func() []string {
	keys := make([]string, len(sections))
	for i, sec := range sections {
		keys[i] = sec.key
	}
	return keys
}()

// UnknownSectionError reports a -only key that names no sweep section.
type UnknownSectionError struct {
	Key string
}

func (e *UnknownSectionError) Error() string {
	return fmt.Sprintf("unknown sweep section %q (valid: all, %s)", e.Key, strings.Join(SweepSectionKeys, ", "))
}

// ParseSections parses a comma-separated -only list into the selected
// section keys in canonical order. "" and "all" select every section;
// blank entries are ignored; any other key that names no section is an
// *UnknownSectionError.
func ParseSections(only string) ([]string, error) {
	if only == "" || only == "all" {
		return slices.Clone(SweepSectionKeys), nil
	}
	picked := make(map[string]bool)
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		switch {
		case k == "":
		case k == "all":
			return slices.Clone(SweepSectionKeys), nil
		case slices.Contains(SweepSectionKeys, k):
			picked[k] = true
		default:
			return nil, &UnknownSectionError{Key: k}
		}
	}
	var keys []string
	for _, k := range SweepSectionKeys {
		if picked[k] {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// Format is how a sweep lays out its blocks.
type Format int

const (
	// Plain prints each block under a "===== title =====" banner.
	Plain Format = iota
	// Markdown prints each block under a "## title" heading, its bodies
	// fenced as code.
	Markdown
)

// RenderSweepSection renders one sweep section to w — the unit of work a
// resumable sweep campaign journals — and returns the first write error.
// Output is deterministic for a fixed (key, procs, trials, f) at any
// parallelism, which the cmd/sweep golden tests and the campaign
// crash/resume guarantee both rely on; keep wall-clock output out of here.
// A key that names no section is an *UnknownSectionError.
func (s *Session) RenderSweepSection(w io.Writer, key string, procs, trials int, f Format) error {
	i := slices.IndexFunc(sections, func(sec section) bool { return sec.key == key })
	if i < 0 {
		return &UnknownSectionError{Key: key}
	}
	for _, b := range sections[i].blocks {
		var out strings.Builder
		bodies := b.render(s, procs, trials)
		if f == Markdown {
			fmt.Fprintf(&out, "## %s\n\n", b.title)
			for _, body := range bodies {
				fmt.Fprintf(&out, "```\n%s```\n\n", body)
			}
		} else {
			fmt.Fprintf(&out, "\n===== %s =====\n\n", b.title)
			for _, body := range bodies {
				fmt.Fprintln(&out, body)
			}
		}
		if _, err := io.WriteString(w, out.String()); err != nil {
			return err
		}
	}
	return nil
}

// Sweep renders the given section keys (see ParseSections) to w — the
// whole evaluation for SweepSectionKeys — under a document heading in
// Markdown. It stops at the first write error and returns it.
// Byte-identical at any parallelism.
func (s *Session) Sweep(w io.Writer, keys []string, procs, trials int, f Format) error {
	if f == Markdown {
		if _, err := fmt.Fprintf(w, "# Evaluation report (%d processors)\n\n"+
			"Machine-generated by `sweep -md`; see EXPERIMENTS.md for the annotated paper-vs-measured discussion.\n\n", procs); err != nil {
			return err
		}
	}
	for _, key := range keys {
		if err := s.RenderSweepSection(w, key, procs, trials, f); err != nil {
			return err
		}
	}
	return nil
}
