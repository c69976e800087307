package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
	"dircoh/internal/tango"
)

// scanCopies is the copy view of block b built the slow way: every
// processor's L2 asked for the block, in processor order.
func scanCopies(m *Machine, b int64) []check.Copy {
	var out []check.Copy
	for _, p := range m.procs {
		switch p.h.State(b) {
		case cache.Shared:
			out = append(out, check.Copy{Proc: p.id, Cluster: p.cl.id, State: check.CopyShared})
		case cache.Dirty:
			out = append(out, check.Copy{Proc: p.id, Cluster: p.cl.id, State: check.CopyDirty})
		}
	}
	return out
}

// TestHolderSetMatchesCaches holds the checker's holder sets against the
// caches. Protostress-style trials cross all six schemes with full-map,
// sparse and overflow directories, each with and without a network fault
// mix, with each injected protocol fault (a dropped invalidation leaves
// its stale copy in the holder set too), and over 24 blocks, which fit in
// every 64-line L2, and 96, which do not, so fills evict. At every
// checkBlock and checkRecallClean, the copy view built from the block's
// holder set must equal a scan of every processor's L2.
func TestHolderSetMatchesCaches(t *testing.T) {
	views, bad := 0, 0
	holderProbe = func(m *Machine, b int64, got []check.Copy) {
		views++
		if want := scanCopies(m, b); !slices.Equal(got, want) {
			bad++
			if bad <= 5 {
				t.Errorf("t=%d block %d: holder set gives %v, the caches hold %v", m.now(), b, got, want)
			}
		}
	}
	defer func() { holderProbe = nil }()

	schemes := []SchemeFactory{FullVec, CoarseVec2, Broadcast, NoBroadcast, SupersetX, TwoLevel}
	faultMixes := []mesh.FaultConfig{{}, {
		Drop: 1e-3, Dup: 1e-2, DelayP: 0.05, DelayMax: 32,
		OutageP: 0.02, OutageLen: 64, OutageEvery: 2048,
	}}
	trial := 0
	for si, scheme := range schemes {
		for _, dir := range []string{"full", "sparse", "overflow"} {
			for _, faults := range faultMixes {
				for _, fault := range []Fault{FaultNone, FaultDropInval, FaultSkipRecallInval} {
					for _, blocks := range []int{24, 96} {
						trial++
						rng := rand.New(rand.NewSource(int64(trial)))
						procs := 4 + 2*rng.Intn(3)
						cfg := Config{
							Procs:           procs,
							ProcsPerCluster: 1 + rng.Intn(2),
							Block:           16,
							Cache:           cache.Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
							Scheme:          scheme,
							Timing:          DefaultTiming(),
							Seed:            int64(trial),
							Check:           true,
							Fault:           fault,
						}
						switch dir {
						case "sparse":
							cfg.Sparse = SparseConfig{Entries: 4 << rng.Intn(3), Assoc: 1 << rng.Intn(3), Policy: sparse.Random}
						case "overflow":
							cfg.Overflow = &OverflowDirConfig{Ptrs: 1, WideEntries: 4, Assoc: 2}
						}
						cfg.Mesh.Faults = faults
						m, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := m.Run(wl(stressStreams(rng, procs, 300, blocks, rng.Intn(3) > 0)...)); err != nil {
							t.Fatalf("trial %d (scheme %d, %s, faults %v, %s, %d blocks): %v", trial, si, dir, faults.Enabled(), fault, blocks, err)
						}
					}
				}
			}
		}
	}
	if views == 0 {
		t.Fatal("no check built a copy view")
	}
	if bad > 0 {
		t.Fatalf("%d of %d copy views disagreed with the caches", bad, views)
	}
	t.Logf("%d trials, %d copy views, all equal to a scan of every cache", trial, views)
}

// TestFinishReportsSorted: a failing run's end-of-run report lists its
// leftover in-flight blocks, unacknowledged processors and unterminated
// span trees in ascending block, processor and transaction order, and is
// the same list on every run, whatever order the leftovers arose in.
func TestFinishReportsSorted(t *testing.T) {
	const n = 12
	order := rand.New(rand.NewSource(5)).Perm(n)
	var first []string
	for rep := 0; rep < 20; rep++ {
		cfg := testConfig(n, FullVec)
		cfg.Check = true
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			m.chk.InvalSent(int64(100+7*i), 1) // never applied
			m.chk.AckExpect(i, 1)              // never acknowledged
			c := m.clusters[i]
			m.txPhase(c, m.txStart(obs.TxRead, c, int64(i)), obs.PhReqTravel) // a child and no root
		}
		if _, err := m.Run(wl(make([][]tango.Ref, n)...)); err != nil {
			t.Fatal(err)
		}
		var got []string
		var blocks, procs, txs []int64
		for _, v := range m.Violations() {
			got = append(got, v.Error())
			var id int64
			switch {
			case v.Rule == check.RuleAck && v.Block >= 0:
				blocks = append(blocks, v.Block)
			case v.Rule == check.RuleAck:
				if _, err := fmt.Sscanf(v.Detail, "proc %d finished", &id); err == nil {
					procs = append(procs, id)
				}
			case v.Rule == check.RuleSpan:
				if _, err := fmt.Sscanf(v.Detail, "transaction %d", &id); err == nil {
					txs = append(txs, id)
				}
			}
		}
		for _, g := range []struct {
			what string
			ids  []int64
		}{{"in-flight blocks", blocks}, {"unacknowledged procs", procs}, {"orphaned transactions", txs}} {
			if len(g.ids) != n || !slices.IsSorted(g.ids) {
				t.Fatalf("run %d reported %d %s in the order %v, want %d ascending", rep, len(g.ids), g.what, g.ids, n)
			}
		}
		if rep == 0 {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("run %d reported\n%v\nrun 0 reported\n%v", rep, got, first)
		}
	}
}
