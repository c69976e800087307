package exp

import (
	"reflect"
	"testing"
)

// snapshot captures everything an experiment driver can leak ordering or
// shared-state bugs through: the raw Result structs, the rendered table,
// and the rendered invalidation histograms.
type snapshot struct {
	runs   []Run
	tables []string
	hists  []string
}

func capture(s *Session, procs int) snapshot {
	var snap snapshot
	runs, tb := s.SchemeComparison("MP3D", procs)
	snap.runs = append(snap.runs, runs...)
	snap.tables = append(snap.tables, tb.String())
	sruns, stb := s.SparsePerformance("MP3D", procs)
	snap.runs = append(snap.runs, sruns...)
	snap.tables = append(snap.tables, stb.String())
	figs := s.Figs3to6(procs)
	snap.runs = append(snap.runs, figs...)
	for _, r := range figs {
		snap.hists = append(snap.hists, r.Result.InvalHist.Render(r.Label))
	}
	snap.tables = append(snap.tables, s.Table2(procs).String())
	return snap
}

// TestPoolDeterminism runs the same experiment grid serially and under
// the pool at several widths and asserts the results are identical: the
// machine.Result structs deeply equal and every rendered table and
// histogram byte-for-byte the same. Any ordering bug in the orchestrator
// or shared state between concurrent simulations fails this test.
func TestPoolDeterminism(t *testing.T) {
	const procs = 8

	want := capture(NewSession(Observer{}, 1), procs)

	widths := []int{2, 3, 8}
	if testing.Short() {
		widths = []int{4}
	}
	for _, par := range widths {
		s := NewSession(Observer{}, par)
		if got := s.Parallelism(); got != par {
			t.Fatalf("Parallelism() = %d, want %d", got, par)
		}
		got := capture(s, procs)
		for i := range want.runs {
			if got.runs[i].App != want.runs[i].App || got.runs[i].Label != want.runs[i].Label {
				t.Fatalf("parallel=%d: run %d is (%s, %s), serial had (%s, %s) — submission order broken",
					par, i, got.runs[i].App, got.runs[i].Label, want.runs[i].App, want.runs[i].Label)
			}
			if !reflect.DeepEqual(got.runs[i].Result, want.runs[i].Result) {
				t.Errorf("parallel=%d: run %d (%s/%s) Result differs from serial run",
					par, i, want.runs[i].App, want.runs[i].Label)
			}
		}
		for i := range want.tables {
			if got.tables[i] != want.tables[i] {
				t.Errorf("parallel=%d: table %d differs from serial output:\n--- serial ---\n%s--- parallel ---\n%s",
					par, i, want.tables[i], got.tables[i])
			}
		}
		for i := range want.hists {
			if got.hists[i] != want.hists[i] {
				t.Errorf("parallel=%d: histogram %d differs from serial output", par, i)
			}
		}
	}
}

// TestSessionParallelismBounds checks the auto default and floor.
func TestSessionParallelismBounds(t *testing.T) {
	if got := NewSession(Observer{}, 3).Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if got := NewSession(Observer{}, 0).Parallelism(); got < 1 {
		t.Fatalf("auto parallelism = %d, want >= 1", got)
	}
}

// TestMeterCountsRuns checks that every simulation is metered exactly
// once with a non-zero cycle count.
func TestMeterCountsRuns(t *testing.T) {
	s := NewSession(Observer{}, 2)
	runs, _ := s.SchemeComparison("MP3D", 8)
	sum := s.Meter().Summary()
	if sum.Jobs != len(runs) {
		t.Fatalf("meter recorded %d jobs, want %d", sum.Jobs, len(runs))
	}
	if sum.Cycles == 0 || sum.Busy <= 0 {
		t.Fatalf("meter summary %+v should have non-zero cycles and busy time", sum)
	}
	s.Meter().Reset()
	if sum := s.Meter().Summary(); sum.Jobs != 0 {
		t.Fatalf("reset failed: %+v", sum)
	}
}
