package machine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dircoh/internal/cache"
	"dircoh/internal/tango"
)

// sortCheckCoherence is CheckCoherence as it was before its sort became a
// radix pass: holders appended in processor order, then ordered by a
// comparison sort on (block, cluster). It is the reference
// TestCheckCoherenceMatchesSortReference holds the radix check to.
func sortCheckCoherence(m *Machine) error {
	var hs []holder
	for _, p := range m.procs {
		cl := int32(p.cl.id)
		p.h.ForEach(func(b int64, st cache.State) {
			hs = append(hs, holder{block: b, cluster: cl, state: st})
		})
	}
	slices.SortFunc(hs, func(a, b holder) int {
		if c := cmp.Compare(a.block, b.block); c != 0 {
			return c
		}
		return cmp.Compare(a.cluster, b.cluster)
	})
	for len(hs) > 0 {
		n := 1
		for n < len(hs) && hs[n].block == hs[0].block {
			n++
		}
		if err := m.checkHolders(hs[0].block, hs[:n]); err != nil {
			return err
		}
		hs = hs[n:]
	}
	return nil
}

// TestCheckCoherenceMatchesSortReference corrupts finished machines at
// random, with one and with four processors per cluster, and requires the
// radix check and the sort reference to return the same error, nil
// included, after every step. A step fills a block Shared or Dirty into a
// cache, invalidates it or downgrades it. Blocks come from the run's
// footprint and from just above 2^40, so a check over both spans six
// radix passes.
func TestCheckCoherenceMatchesSortReference(t *testing.T) {
	const runs, steps = 60, 6
	const far = int64(1) << 40
	rng := rand.New(rand.NewSource(11))
	var nils, errs, wide int // checks: clean, failing, with a block above far cached
	for _, ppc := range []int{1, 4} {
		for run := 0; run < runs; run++ {
			cfg := testConfig(16, FullVec)
			cfg.ProcsPerCluster = ppc
			streams := make([][]tango.Ref, cfg.Procs)
			for p := range streams {
				var bl tango.Builder
				for i := 0; i < 60; i++ {
					if a := addr(int64(rng.Intn(96))); rng.Intn(3) == 0 {
						bl.Write(a)
					} else {
						bl.Read(a)
					}
				}
				streams[p] = bl.Refs()
			}
			m, _ := mustRun(t, cfg, wl(streams...))
			for step := 0; step < steps; step++ {
				b := int64(rng.Intn(96))
				if rng.Intn(4) == 0 {
					b = far + int64(rng.Intn(8))
				}
				h := m.procs[rng.Intn(len(m.procs))].h
				switch rng.Intn(4) {
				case 0:
					h.Fill(b, cache.Shared, uint64(step))
				case 1:
					h.Fill(b, cache.Dirty, uint64(step))
				case 2:
					h.Invalidate(b)
				case 3:
					h.Downgrade(b)
				}
				got, want := m.CheckCoherence(), sortCheckCoherence(m)
				if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
					t.Fatalf("%d procs/cluster, run %d, step %d: CheckCoherence = %v, sort reference %v", ppc, run, step, got, want)
				}
				if got == nil {
					nils++
				} else {
					errs++
				}
			scan:
				for _, p := range m.procs {
					for k := int64(0); k < 8; k++ {
						if p.h.State(far+k) != cache.Invalid {
							wide++
							break scan
						}
					}
				}
			}
		}
	}
	t.Logf("%d clean and %d failing checks, %d with a block above 2^40 cached", nils, errs, wide)
	if nils == 0 || errs == 0 || wide == 0 {
		t.Fatalf("%d clean and %d failing checks, %d with a block above 2^40 cached: the walk missed a case", nils, errs, wide)
	}
}

// TestSortHoldersStable: the radix sort matches a stable comparison sort
// by block, for spans from one byte to the whole int64 range.
func TestSortHoldersStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, span := range []int64{1, 200, 1 << 16, 1 << 40, math.MaxInt64} {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			hs := make([]holder, n)
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			for i := range hs {
				b := rng.Int63n(span) - span/2
				if i == 0 && span == math.MaxInt64 {
					b = math.MinInt64
				}
				hs[i] = holder{block: b, cluster: int32(i)}
				lo, hi = min(lo, b), max(hi, b)
			}
			want := slices.Clone(hs)
			slices.SortStableFunc(want, func(a, b holder) int { return cmp.Compare(a.block, b.block) })
			if got := sortHolders(hs, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("span %d, %d holders: radix order differs from a stable sort", span, n)
			}
		}
	}
}
