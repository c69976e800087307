package exp

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"dircoh/internal/analytic"
)

// SweepSectionKeys is the canonical section order of the paper sweep —
// the order cmd/sweep has always printed and the order the campaign
// service decomposes a sweep campaign into indexed jobs. Each key renders
// one self-contained chunk of the evaluation (a figure, a table, or a
// titled group of them).
var SweepSectionKeys = []string{"2", "t1", "t2", "3-6", "7-10", "11-12", "13", "14", "scale", "scale-sim"}

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

func sweepSection(w io.Writer, title string) {
	fmt.Fprintf(w, "\n===== %s =====\n\n", title)
}

// RenderSweepSection renders one sweep section to w — the unit of work a
// resumable sweep campaign journals. Output is deterministic for a fixed
// (key, procs, trials) triple at any parallelism, which
// the cmd/sweep golden tests and the campaign crash/resume guarantee both
// rely on; keep wall-clock output out of here. Keys come from
// ParseSections; an unknown key renders nothing.
func (s *Session) RenderSweepSection(w io.Writer, key string, procs, trials int) {
	switch key {
	case "2":
		sweepSection(w, "Figure 2(a): average invalidations vs sharers, 32 processors")
		fmt.Fprintln(w, analytic.Fig2Table(32, trials, 1))
		sweepSection(w, "Figure 2(b): average invalidations vs sharers, 64 processors")
		fmt.Fprintln(w, analytic.Fig2Table(64, trials, 1))
	case "t1":
		sweepSection(w, "Table 1: sample machine configurations")
		fmt.Fprintln(w, analytic.Table1())
	case "t2":
		sweepSection(w, "Table 2: general application characteristics")
		fmt.Fprintln(w, s.Table2(procs))
	case "3-6":
		sweepSection(w, "Figures 3-6: invalidation distributions, LocusRoute")
		for _, run := range s.Figs3to6(procs) {
			fmt.Fprint(w, run.Result.InvalHist.Render(run.Label))
			fmt.Fprintln(w)
		}
	case "7-10":
		for i, app := range []string{"LU", "DWF", "MP3D", "LocusRoute"} {
			sweepSection(w, fmt.Sprintf("Figure %d: performance for %s", 7+i, app))
			_, tb := s.SchemeComparison(app, procs)
			fmt.Fprintln(w, tb)
		}
	case "11-12":
		sweepSection(w, "Figure 11: sparse directory performance for LU")
		_, tb := s.SparsePerformance("LU", procs)
		fmt.Fprintln(w, tb)
		sweepSection(w, "Figure 12: sparse directory performance for DWF")
		_, tb = s.SparsePerformance("DWF", procs)
		fmt.Fprintln(w, tb)
	case "13":
		sweepSection(w, "Figure 13: effect of associativity in sparse directory (LU)")
		_, tb := s.AssocSweep("LU", procs)
		fmt.Fprintln(w, tb)
	case "14":
		sweepSection(w, "Figure 14: effect of replacement policy in sparse directory (LU)")
		_, tb := s.PolicySweep("LU", procs)
		fmt.Fprintln(w, tb)
	case "scale":
		sweepSection(w, "Beyond 64 processors: Table 1 extended to 4096-cluster machines")
		fmt.Fprintln(w, analytic.Table1For([]int{64, 256, 1024, 4096}))
		sweepSection(w, "Beyond 64 processors: directory entry cost per scheme")
		fmt.Fprintln(w, analytic.EntryCostTable([]int{64, 256, 1024, 4096}))
	case "scale-sim":
		sweepSection(w, "Beyond 64 processors: simulated traffic at 256-4096 clusters")
		_, tb := s.ScaleStudy(ScaleAxis, 3)
		fmt.Fprintln(w, tb)
	}
}

// Sweep renders the given section keys (see ParseSections) to w — the
// whole paper evaluation for SweepSectionKeys. Byte-identical at any
// parallelism.
func (s *Session) Sweep(w io.Writer, keys []string, procs, trials int) {
	for _, key := range keys {
		s.RenderSweepSection(w, key, procs, trials)
	}
}
