package analytic

import (
	"strings"
	"testing"

	"dircoh/internal/core"
)

func TestInvalCurveFullVectorIsIdeal(t *testing.T) {
	// The full bit vector sends invalidations to exactly the sharers
	// (minus the home when it happens to be one): s-1 <= avg <= s.
	curve := InvalCurve(core.Must(core.NewFullVector(16)), 400, 1)
	for s := 1; s < 16; s++ {
		if curve[s] > float64(s) || curve[s] < float64(s)-1 {
			t.Fatalf("full vector curve[%d] = %.2f, want within [s-1, s]", s, curve[s])
		}
	}
}

func TestInvalCurveBroadcastSaturates(t *testing.T) {
	// Dir3B with 32 nodes: once sharers exceed 3 pointers every event is
	// a broadcast to ~N-2 clusters (§6.1: "For most broadcasts, 30
	// clusters have to be invalidated" at 32 clusters).
	curve := InvalCurve(core.Must(core.NewLimitedBroadcast(3, 32)), 400, 1)
	for s := 1; s <= 3; s++ {
		if curve[s] > float64(s) {
			t.Fatalf("below-overflow curve[%d] = %.2f too high", s, curve[s])
		}
	}
	for s := 4; s < 32; s++ {
		// ~N-2, slightly above when the random home coincides with the
		// writer (then only one exclusion applies).
		if curve[s] < 29 || curve[s] > 30.2 {
			t.Fatalf("broadcast curve[%d] = %.2f, want ~30", s, curve[s])
		}
	}
}

func TestInvalCurveOrdering(t *testing.T) {
	// Figure 2's headline: full <= CV <= X <= B for every sharer count
	// beyond overflow (X is "only marginally better than broadcast").
	const n = 64
	full := InvalCurve(core.Must(core.NewFullVector(n)), 300, 1)
	cv := InvalCurve(core.Must(core.NewCoarseVector(3, 4, n)), 300, 1)
	x := InvalCurve(core.Must(core.NewSuperset(3, n)), 300, 1)
	b := InvalCurve(core.Must(core.NewLimitedBroadcast(3, n)), 300, 1)
	for s := 4; s < n; s++ {
		if !(full[s] <= cv[s]+0.5 && cv[s] <= x[s]+0.5 && x[s] <= b[s]+0.5) {
			t.Fatalf("ordering violated at s=%d: full=%.1f cv=%.1f x=%.1f b=%.1f",
				s, full[s], cv[s], x[s], b[s])
		}
	}
	// And the gaps are material in the middle of the range.
	if cv[16] >= x[16] || x[32] < b[32]*0.8 {
		t.Fatalf("expected CV well below X and X close to B: cv=%.1f x=%.1f b=%.1f",
			cv[16], x[16], b[32])
	}
}

func TestInvalCurveDeterministic(t *testing.T) {
	a := InvalCurve(core.Must(core.NewCoarseVector(3, 2, 16)), 100, 9)
	b := InvalCurve(core.Must(core.NewCoarseVector(3, 2, 16)), 100, 9)
	for s := range a {
		if a[s] != b[s] {
			t.Fatal("curve not deterministic for equal seeds")
		}
	}
}

func TestInvalCurvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InvalCurve(core.Must(core.NewFullVector(4)), 0, 1)
}

func TestFig2Table(t *testing.T) {
	f := NewFig2(32, 50, 1)
	s := f.Table().String()
	if !strings.Contains(s, "Dir3CV2") || !strings.Contains(s, "Dir32") {
		t.Fatalf("table missing schemes:\n%s", s)
	}
	if p := f.Plot(); !strings.Contains(p, "Dir3CV2") || !strings.Contains(p, "number of sharers") {
		t.Fatalf("plot missing legend or axis:\n%s", p)
	}
	tb64 := NewFig2(64, 50, 1).Table()
	if !strings.Contains(tb64.String(), "Dir3CV4") {
		t.Fatal("64-node table should use region 4")
	}
}

func TestOverheadDASHPrototype(t *testing.T) {
	// §3.1: 17 bits per 16-byte block = 13.3%.
	cfg := OverheadConfig{
		Procs: 64, ProcsPerCluster: 4,
		MemBytesPerProc: 16 << 20, CacheBytesPerProc: 256 << 10,
		BlockBytes: 16, Scheme: core.Must(core.NewFullVector(16)),
	}
	r := Overhead(cfg)
	if r.StateBits != 17 || r.TagBits != 0 {
		t.Fatalf("bits = %d+%d, want 17+0", r.StateBits, r.TagBits)
	}
	if r.OverheadPct < 13.2 || r.OverheadPct > 13.4 {
		t.Fatalf("overhead = %.2f%%, want 13.3%%", r.OverheadPct)
	}
	if r.Savings != 1 {
		t.Fatalf("non-sparse savings = %v, want 1", r.Savings)
	}
}

func TestSparseSavingsExample(t *testing.T) {
	// §5: 33 state bits + 6 tag bits per 64 blocks -> savings factor ~54.
	r := SparseSavingsExample()
	if r.StateBits != 33 || r.TagBits != 6 {
		t.Fatalf("bits = %d+%d, want 33+6", r.StateBits, r.TagBits)
	}
	if r.Savings < 54 || r.Savings > 55 {
		t.Fatalf("savings = %.1f, want ~54", r.Savings)
	}
}

func TestTable1RowsNearThirteenPercent(t *testing.T) {
	s := Table1().String()
	if !strings.Contains(s, "Dir16") || !strings.Contains(s, "sparse Dir8CV4") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	// All three configurations were designed to stay around 13%.
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "%") {
			continue
		}
		if !strings.Contains(line, "13.") && !strings.Contains(line, "12.") {
			t.Fatalf("overhead drifted from ~13%%: %q", line)
		}
	}
}

func TestOverheadSparsityReducesStorage(t *testing.T) {
	base := OverheadConfig{
		Procs: 256, ProcsPerCluster: 4,
		MemBytesPerProc: 16 << 20, CacheBytesPerProc: 256 << 10,
		BlockBytes: 16, Scheme: core.Must(core.NewFullVector(64)),
	}
	full := Overhead(base)
	base.Sparsity = 16
	sp := Overhead(base)
	if sp.OverheadPct >= full.OverheadPct/10 {
		t.Fatalf("sparsity 16 should cut overhead >10x: %.2f%% vs %.2f%%",
			sp.OverheadPct, full.OverheadPct)
	}
	if sp.Savings < 10 {
		t.Fatalf("savings = %.1f, want > 10", sp.Savings)
	}
}
