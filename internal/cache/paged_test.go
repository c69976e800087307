package cache

import (
	"slices"
	"testing"
	"unsafe"
)

// pagedGeometries span several pages with set counts that are not a
// multiple of pageSets (3, 96 and 200 sets), at associativities 1, 2 and 4.
// Every other test in the package fits in one page.
var pagedGeometries = []Config{
	{L1Size: 3 * 16, L1Assoc: 1, L2Size: 96 * 2 * 16, L2Assoc: 2, Block: 16},
	{L1Size: 96 * 16, L1Assoc: 1, L2Size: 200 * 4 * 16, L2Assoc: 4, Block: 16},
	{L1Size: 3 * 4 * 16, L1Assoc: 4, L2Size: 200 * 16, L2Assoc: 1, Block: 16},
	{L1Size: 96 * 2 * 16, L1Assoc: 2, L2Size: 200 * 2 * 16, L2Assoc: 2, Block: 16},
	{L1Size: 200 * 16, L1Assoc: 1, L2Size: 200 * 4 * 16, L2Assoc: 4, Block: 16},
	{L1Size: 3 * 2 * 16, L1Assoc: 2, L2Size: 3 * 4 * 16, L2Assoc: 4, Block: 16},
}

type visit struct {
	block int64
	st    State
}

func visits(forEach func(func(int64, State))) []visit {
	var vs []visit
	forEach(func(b int64, st State) { vs = append(vs, visit{b, st}) })
	return vs
}

// FuzzHierarchyMatchesReference drives the paged hierarchy and the unpaged
// reference with the same calls and requires the same answer after every
// one: return values, victims, Stats, each level's Occupancy and the full
// ForEach sequence of each level, in order. Each op takes three bytes: the
// kind and a clock advance of 0-3 (so equal lastUse ties, which LRU must
// break toward the first way, are common), then a block number up to 2047,
// enough to spread over every page of the geometries above.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x00, 0x05, 0x13, 0x00, 0x05, 0x01, 0x00, 0xc5, 0x02, 0x01, 0x05})
	f.Add(uint8(1), []byte{0x21, 0x00, 0x40, 0x31, 0x01, 0x08, 0x41, 0x02, 0x10, 0x03, 0x00, 0x40, 0x04, 0x01, 0x08})
	f.Add(uint8(4), []byte{0x09, 0x00, 0xc8, 0x19, 0x01, 0x90, 0x29, 0x02, 0x58, 0x38, 0x00, 0xc8, 0x06, 0x01, 0x90, 0x05, 0x02, 0x58})
	// Five fills into one 4-way set at one instant: the fifth evicts the
	// first way.
	f.Add(uint8(5), []byte{0x02, 0x00, 0x00, 0x02, 0x00, 0x03, 0x02, 0x00, 0x06, 0x02, 0x00, 0x09, 0x02, 0x00, 0x0c})
	f.Fuzz(func(t *testing.T, geo uint8, ops []byte) {
		cfg := pagedGeometries[int(geo)%len(pagedGeometries)]
		h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
		now := uint64(0)
		for i := 0; i+2 < len(ops); i += 3 {
			kind, b := ops[i], int64(ops[i+1]&0x7)<<8|int64(ops[i+2])
			now += uint64(kind >> 6)
			st := Shared
			if kind&0x8 != 0 {
				st = Dirty
			}
			switch kind & 0x7 {
			case 0, 1:
				write := kind&0x7 == 1
				if got, want := h.Access(b, write, now), ref.Access(b, write, now); got != want {
					t.Fatalf("op %d: Access(%d, %v) = %v, reference %v", i/3, b, write, got, want)
				}
			case 2, 3:
				if got, want := h.Fill(b, st, now), ref.Fill(b, st, now); got != want {
					t.Fatalf("op %d: Fill(%d, %v) = %+v, reference %+v", i/3, b, st, got, want)
				}
			case 4:
				if ref.State(b) != Invalid {
					h.Upgrade(b, now)
					ref.Upgrade(b, now)
				}
			case 5:
				p, d := h.Invalidate(b)
				rp, rd := ref.Invalidate(b)
				if p != rp || d != rd {
					t.Fatalf("op %d: Invalidate(%d) = (%v, %v), reference (%v, %v)", i/3, b, p, d, rp, rd)
				}
			case 6:
				if got, want := h.Downgrade(b), ref.Downgrade(b); got != want {
					t.Fatalf("op %d: Downgrade(%d) = %v, reference %v", i/3, b, got, want)
				}
			case 7:
				if got, want := h.State(b), ref.State(b); got != want {
					t.Fatalf("op %d: State(%d) = %v, reference %v", i/3, b, got, want)
				}
			}
			if h.Stats() != ref.Stats() {
				t.Fatalf("op %d: Stats = %+v, reference %+v", i/3, h.Stats(), ref.Stats())
			}
			for lv, pair := range [][2]func(func(int64, State)){
				{h.l1.ForEach, ref.l1.ForEach}, {h.l2.ForEach, ref.l2.ForEach}, {h.ForEach, ref.ForEach},
			} {
				if got, want := visits(pair[0]), visits(pair[1]); !slices.Equal(got, want) {
					t.Fatalf("op %d: ForEach #%d visits %v, reference %v", i/3, lv, got, want)
				}
			}
			if h.l1.Occupancy() != ref.l1.Occupancy() || h.l2.Occupancy() != ref.l2.Occupancy() {
				t.Fatalf("op %d: Occupancy L1 %d L2 %d, reference %d %d", i/3,
					h.l1.Occupancy(), h.l2.Occupancy(), ref.l1.Occupancy(), ref.l2.Occupancy())
			}
		}
		if h.Lines() != ref.Lines() {
			t.Fatalf("Lines = %d, reference %d", h.Lines(), ref.Lines())
		}
	})
}

// TestUntouchedPagesAllocateNothing: lookups and the operations that only
// modify present lines leave a page that was never filled unallocated.
func TestUntouchedPagesAllocateNothing(t *testing.T) {
	c := NewCache(200*4*16, 16, 4)
	allocs := testing.AllocsPerRun(10, func() {
		for b := int64(0); b < 1000; b++ {
			c.State(b)
			c.Touch(b, 1)
			c.Invalidate(b)
			c.Downgrade(b)
		}
	})
	if allocs != 0 || len(c.lines) != 0 || c.Occupancy() != 0 {
		t.Fatalf("allocs %v, %d lines allocated, occupancy %d; want none", allocs, len(c.lines), c.Occupancy())
	}
	// A Fill allocates only the page it lands in: the last page of 200
	// sets holds the 8 remaining sets.
	c.Fill(199, Shared, 1)
	if len(c.lines) != 8*4 || c.pages[3] == 0 || c.pages[0] != 0 {
		t.Fatalf("after one Fill: %d lines, pages %v", len(c.lines), c.pages)
	}
	if c.Lines() != 800 {
		t.Fatalf("Lines = %d, want the geometry's 800", c.Lines())
	}
}

// TestForEachSetOrder: ForEach visits lines in set order however the pages
// were allocated.
func TestForEachSetOrder(t *testing.T) {
	c := NewCache(200*16, 16, 1)
	for _, b := range []int64{150, 199, 3, 70, 64} {
		c.Fill(b, Shared, 1)
	}
	got := visits(c.ForEach)
	want := []visit{{3, Shared}, {64, Shared}, {70, Shared}, {150, Shared}, {199, Shared}}
	if !slices.Equal(got, want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
}

func TestLinePacked(t *testing.T) {
	if s := unsafe.Sizeof(line{}); s != 24 {
		t.Fatalf("line is %d bytes, want 24", s)
	}
}

// TestHotPathsAllocFree: a hit, and a Fill into a page that is already
// allocated, allocate nothing.
func TestHotPathsAllocFree(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(42, Shared, 0)
	now := uint64(1)
	if a := testing.AllocsPerRun(100, func() {
		now++
		if h.Access(42, false, now) != Hit {
			t.Fatal("expected a hit")
		}
	}); a != 0 {
		t.Fatalf("Access hit allocates %v times", a)
	}
	// Blocks 42 + k*sets share 42's set at both levels (the L2's set count
	// is a multiple of the L1's), so each Fill evicts within allocated pages.
	sets := int64(h.l2.sets)
	k := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		now++
		k++
		h.Fill(42+k*sets, Dirty, now)
	}); a != 0 {
		t.Fatalf("Fill into an allocated page allocates %v times", a)
	}
}
