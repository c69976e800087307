package core

import "testing"

func benchAddSharer(b *testing.B, s Scheme) {
	b.ReportAllocs()
	n := s.Nodes()
	for i := 0; i < b.N; i++ {
		e := s.NewEntry()
		for j := 0; j < n; j++ {
			e.AddSharer(j % n)
		}
	}
}

func BenchmarkAddSharerFullVector(b *testing.B) { benchAddSharer(b, Must(NewFullVector(64))) }
func BenchmarkAddSharerBroadcast(b *testing.B)  { benchAddSharer(b, Must(NewLimitedBroadcast(3, 64))) }
func BenchmarkAddSharerNoBroadcast(b *testing.B) {
	benchAddSharer(b, Must(NewLimitedNoBroadcast(3, 64, VictimRandom, 1)))
}
func BenchmarkAddSharerSuperset(b *testing.B)     { benchAddSharer(b, Must(NewSuperset(2, 64))) }
func BenchmarkAddSharerCoarseVector(b *testing.B) { benchAddSharer(b, Must(NewCoarseVector(3, 4, 64))) }
func BenchmarkAddSharerTwoLevel(b *testing.B)     { benchAddSharer(b, Must(NewTwoLevel(4, 8, 64))) }

func benchSharers(b *testing.B, s Scheme) {
	e := s.NewEntry()
	for j := 0; j < s.Nodes(); j += 3 {
		e.AddSharer(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += e.Sharers().Count()
	}
	_ = total
}

func BenchmarkSharersFullVector(b *testing.B)   { benchSharers(b, Must(NewFullVector(64))) }
func BenchmarkSharersSuperset(b *testing.B)     { benchSharers(b, Must(NewSuperset(2, 64))) }
func BenchmarkSharersCoarseVector(b *testing.B) { benchSharers(b, Must(NewCoarseVector(3, 4, 64))) }
func BenchmarkSharersTwoLevel(b *testing.B)     { benchSharers(b, Must(NewTwoLevel(4, 8, 64))) }

func BenchmarkSharersFullVector4096(b *testing.B) { benchSharers(b, Must(NewFullVector(4096))) }
func BenchmarkSharersTwoLevel4096(b *testing.B)   { benchSharers(b, Must(NewTwoLevel(4, 64, 4096))) }

// TestSharersAllocFree pins the scratch-view contract: after the first
// Sharers call allocates the per-entry scratch, every further call must
// be allocation-free at every machine size the schemes are built for —
// the per-call garbage this view replaced is what made large sweeps
// allocation-bound.
func TestSharersAllocFree(t *testing.T) {
	for _, nodes := range []int{64, 1024, 4096} {
		for _, s := range scaleSchemes(nodes) {
			e := s.NewEntry()
			for j := 0; j < nodes; j += 7 {
				e.AddSharer(j)
			}
			e.Sharers() // first call may allocate the scratch
			if n := testing.AllocsPerRun(50, func() { e.Sharers() }); n != 0 {
				t.Errorf("n=%d %s: Sharers allocates %.1f objects per call after warm-up", nodes, s.Name(), n)
			}
		}
	}
}

// TestNoBroadcastOverflowAllocFree: a Dir_iNB pointer overflow, and a
// lock grant popped from the same entry, return slices backed by
// per-entry scratch — the read-caused invalidations of Figure 4 happen on
// most Dir3NB misses of a widely read block.
func TestNoBroadcastOverflowAllocFree(t *testing.T) {
	for _, policy := range []VictimPolicy{VictimRandom, VictimOldest} {
		s := Must(NewLimitedNoBroadcast(3, 64, policy, 1))
		e := s.NewEntry()
		n := 0
		overflow := func() {
			n++
			if ev := e.AddSharer(n % 64); len(ev) > 1 {
				t.Fatalf("%v: %d sharers dropped by one overflow", policy, len(ev))
			}
		}
		for i := 0; i < 8; i++ {
			overflow()
		}
		if a := testing.AllocsPerRun(100, overflow); a != 0 {
			t.Errorf("%v: AddSharer on a full entry allocates %.1f objects per call", policy, a)
		}
		pop := func() {
			e.AddSharer(n % 64)
			n++
			if g := e.PopGrant(); len(g) != 1 {
				t.Fatalf("%v: PopGrant returned %v", policy, g)
			}
		}
		if a := testing.AllocsPerRun(100, pop); a != 0 {
			t.Errorf("%v: AddSharer+PopGrant allocates %.1f objects per call", policy, a)
		}
	}
}
