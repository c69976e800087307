package sparse

import (
	"strings"
	"testing"
	"testing/quick"

	"dircoh/internal/core"
)

func scheme() core.Scheme { return core.Must(core.NewFullVector(16)) }

func TestFullMapLookupAllocate(t *testing.T) {
	d := NewFullMap(scheme(), nil)
	if d.Lookup(5, 0) != nil {
		t.Fatal("Lookup on empty map should return nil")
	}
	e, v := d.Allocate(5, 0)
	if e == nil || v != nil {
		t.Fatal("Allocate should create entry without victim")
	}
	e.AddSharer(3)
	e2 := d.Lookup(5, 1)
	if e2 != e {
		t.Fatal("Lookup should return the same entry")
	}
	e3, _ := d.Allocate(5, 2)
	if e3 != e {
		t.Fatal("Allocate should return the existing entry")
	}
	d.Release(5)
	if d.Lookup(5, 3) != nil {
		t.Fatal("entry should be gone after Release")
	}
	if d.Entries() != 0 {
		t.Fatal("FullMap should report unbounded entries")
	}
	st := d.Stats()
	if st.Allocations != 1 || st.Replacements != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFreshFullMapReadsWithoutAllocating: a full map answers every read
// without allocating or making its map until the first Allocate, so a
// machine can hold one per cluster and pay only for the homes a run uses.
func TestFreshFullMapReadsWithoutAllocating(t *testing.T) {
	var d FullMap
	d.Init(scheme(), nil)
	allocs := testing.AllocsPerRun(100, func() {
		for b := int64(0); b < 8; b++ {
			if d.Peek(b) != nil || d.Lookup(b, 1) != nil {
				t.Fatalf("a fresh full map has an entry for block %d", b)
			}
			d.Release(b)
		}
		if d.LiveEntries() != 0 || d.PeakEntries() != 0 || d.Entries() != 0 || d.Stats().Allocations != 0 {
			t.Fatal("a fresh full map reports entries")
		}
	})
	if allocs != 0 || d.entries != nil {
		t.Fatalf("reads of a fresh full map allocate %v times (map made: %v)", allocs, d.entries != nil)
	}
	if e, _ := d.Allocate(3, 1); e == nil || d.Peek(3) != e || d.LiveEntries() != 1 {
		t.Fatal("the first Allocate did not install an entry")
	}
}

func TestSparseBasicAllocate(t *testing.T) {
	d := New(Config{Scheme: scheme(), Entries: 8, Assoc: 2, Policy: LRU})
	if d.Entries() != 8 {
		t.Fatalf("Entries = %d, want 8", d.Entries())
	}
	e, v := d.Allocate(100, 1)
	if e == nil || v != nil {
		t.Fatal("first allocation should not evict")
	}
	if got := d.Lookup(100, 2); got != e {
		t.Fatal("Lookup should find the allocated entry")
	}
	if d.Lookup(101, 2) != nil {
		t.Fatal("Lookup of absent block should return nil")
	}
	if d.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", d.Occupancy())
	}
}

func TestSparseConflictEviction(t *testing.T) {
	// 4 sets, assoc 1: blocks 0, 4, 8 all map to set 0.
	d := New(Config{Scheme: scheme(), Entries: 4, Assoc: 1, Policy: LRU})
	e0, _ := d.Allocate(0, 1)
	e0.AddSharer(2)
	_, v := d.Allocate(4, 2)
	if v == nil {
		t.Fatal("conflicting allocation should evict")
	}
	if v.Block != 0 {
		t.Fatalf("victim block = %d, want 0", v.Block)
	}
	if !v.Entry.IsSharer(2) {
		t.Fatal("victim entry should carry its sharing state")
	}
	if d.Lookup(0, 3) != nil {
		t.Fatal("evicted block should be gone")
	}
	if d.Stats().Replacements != 1 {
		t.Fatalf("Replacements = %d, want 1", d.Stats().Replacements)
	}
}

func TestSparseLRUVictim(t *testing.T) {
	// 1 set, assoc 4. Touch order decides the victim.
	d := New(Config{Scheme: scheme(), Entries: 4, Assoc: 4, Policy: LRU})
	for i, b := range []int64{10, 20, 30, 40} {
		d.Allocate(b, uint64(i+1))
	}
	d.Lookup(10, 10) // 10 is now most recent; 20 is LRU
	_, v := d.Allocate(50, 11)
	if v == nil || v.Block != 20 {
		t.Fatalf("victim = %+v, want block 20", v)
	}
}

func TestSparseLRAVictim(t *testing.T) {
	d := New(Config{Scheme: scheme(), Entries: 4, Assoc: 4, Policy: LRA})
	for i, b := range []int64{10, 20, 30, 40} {
		d.Allocate(b, uint64(i+1))
	}
	// Touching 10 must NOT save it under LRA: allocation time rules.
	d.Lookup(10, 10)
	_, v := d.Allocate(50, 11)
	if v == nil || v.Block != 10 {
		t.Fatalf("victim = %+v, want block 10 (oldest allocation)", v)
	}
}

func TestSparseRandomVictimIsValidAndDeterministic(t *testing.T) {
	run := func() []int64 {
		d := New(Config{Scheme: scheme(), Entries: 4, Assoc: 4, Policy: Random, Seed: 99})
		for i, b := range []int64{10, 20, 30, 40} {
			d.Allocate(b, uint64(i+1))
		}
		var victims []int64
		for i, b := range []int64{50, 60, 70} {
			_, v := d.Allocate(b, uint64(10+i))
			if v == nil {
				return nil
			}
			victims = append(victims, v.Block)
		}
		return victims
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("expected evictions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic for equal seeds")
		}
	}
}

func TestSparseRelease(t *testing.T) {
	d := New(Config{Scheme: scheme(), Entries: 2, Assoc: 2, Policy: LRU})
	d.Allocate(1, 1)
	d.Allocate(3, 2)
	d.Release(1)
	if d.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", d.Occupancy())
	}
	// Freed slot is reused without eviction.
	_, v := d.Allocate(5, 3)
	if v != nil {
		t.Fatal("allocation into freed slot should not evict")
	}
	// Releasing an absent block is harmless.
	d.Release(999)
}

func TestSparseEntriesRounding(t *testing.T) {
	d := New(Config{Scheme: scheme(), Entries: 7, Assoc: 4, Policy: LRU})
	if d.Entries() != 8 {
		t.Fatalf("Entries = %d, want rounded to 8", d.Entries())
	}
	if d.Assoc() != 4 {
		t.Fatalf("Assoc = %d, want 4", d.Assoc())
	}
}

func TestSparseZeroAssocDefaultsToDirect(t *testing.T) {
	d := New(Config{Scheme: scheme(), Entries: 4, Policy: LRU})
	if d.Assoc() != 1 {
		t.Fatalf("Assoc = %d, want 1", d.Assoc())
	}
}

func TestNewPanics(t *testing.T) {
	for i, cfg := range []Config{
		{Scheme: nil, Entries: 4},
		{Scheme: scheme(), Entries: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || Random.String() != "Rand" || LRA.String() != "LRA" {
		t.Fatal("policy names wrong")
	}
	if ReplacePolicy(7).String() == "" {
		t.Fatal("unknown policy should render")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]ReplacePolicy{
		"": LRU, "lru": LRU, "LRU": LRU, "rand": Random, "Random": Random, "lra": LRA,
	} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil || !strings.Contains(err.Error(), `"fifo"`) {
		t.Errorf("ParsePolicy(fifo) error = %v, want one naming the policy", err)
	}
}

// Property: the sparse directory never holds more than Entries live
// entries, never holds two entries for one block, and every Lookup after
// an un-evicted Allocate hits.
func TestQuickSparseInvariants(t *testing.T) {
	f := func(blocks []int16, assocRaw uint8) bool {
		assoc := 1 << (assocRaw % 3) // 1, 2, 4
		d := New(Config{Scheme: scheme(), Entries: 16, Assoc: assoc, Policy: LRU})
		live := map[int64]bool{}
		for i, braw := range blocks {
			b := int64(braw & 0x3f)
			_, v := d.Allocate(b, uint64(i))
			if v != nil {
				if v.Block == b {
					return false // must never evict the block being allocated
				}
				delete(live, v.Block)
			}
			live[b] = true
			if d.Lookup(b, uint64(i)) == nil {
				return false
			}
			if d.Occupancy() > d.Entries() || d.Occupancy() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats are consistent — hits <= lookups, replacements <= allocations.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(blocks []int16) bool {
		d := New(Config{Scheme: scheme(), Entries: 8, Assoc: 2, Policy: Random, Seed: 5})
		for i, braw := range blocks {
			d.Allocate(int64(braw&0xff), uint64(i))
		}
		st := d.Stats()
		return st.Hits <= st.Lookups && st.Replacements <= st.Allocations &&
			st.Allocations <= st.Lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
