// Package cache models the processor cache hierarchy of a DASH node: a
// primary (L1) and an inclusive secondary (L2) set-associative cache with
// MSI states, LRU replacement within a set, writeback of dirty victims and
// silent drop of shared victims.
//
// Addresses are pre-divided block numbers: the machine layer converts byte
// addresses to blocks before touching the caches. A line packs its block
// number into 62 bits, so block numbers lie in [-2^61, 2^61).
package cache

import (
	"fmt"
	"math"
)

// State is an MSI cache line state.
type State uint8

const (
	// Invalid means no copy is present.
	Invalid State = iota
	// Shared means a clean copy is present; reads hit, writes need
	// ownership.
	Shared
	// Dirty means this cache holds the only, modified copy.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Dirty:
		return "D"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// line is one cache way packed into a word: block<<2 | state. A present
// line is Shared or Dirty, so its word is never zero, and the zero word
// is an invalid way.
type line uint64

func pack(block int64, st State) line { return line(uint64(block)<<2 | uint64(st)) }

func (l line) block() int64 { return int64(l) >> 2 }
func (l line) state() State { return State(l & 3) }

// pageSets is how many consecutive sets a cache allocates at once, on the
// first Fill into any of them. A run pays host memory only for the pages
// it touches: a set whose page was never filled holds no line, so a
// lookup there misses without allocating.
const pageSets = 64

// Cache is a single set-associative cache level. Its lines live in pages of
// pageSets consecutive sets (the last page holds the remainder), carved in
// first-fill order from one pointer-free slab.
type Cache struct {
	sets  int
	assoc int
	// mask is sets-1 when pow2 is set: a power-of-two set count (the
	// paper's geometries) indexes with a mask instead of a 64-bit modulus.
	mask uint64
	pow2 bool
	// pages maps page p, sets [p*pageSets, (p+1)*pageSets), to 1 + the
	// slab offset of its first line; 0 means the page was never filled.
	pages []int32
	lines []line
	// use holds each line's LRU stamp, parallel to lines. Only a set of
	// more than one way picks a victim by stamp, so a direct-mapped cache
	// leaves it nil.
	use []uint64
}

// GeometryError reports an impossible cache geometry — the typed form of
// the constructor panics, returned by Config.Validate so user-supplied
// sizes fail with a message instead of a stack trace.
type GeometryError struct {
	Level  string // "L1" or "L2" (empty for a bare cache)
	Size   int
	Block  int
	Assoc  int
	Reason string
}

func (e *GeometryError) Error() string {
	if e.Level != "" {
		return fmt.Sprintf("cache: %s: %s", e.Level, e.Reason)
	}
	return "cache: " + e.Reason
}

// checkGeometry validates one cache level's geometry; NewCache panics with
// its error.
func checkGeometry(level string, sizeBytes, blockBytes, assoc int) error {
	bad := func(reason string) error {
		return &GeometryError{Level: level, Size: sizeBytes, Block: blockBytes, Assoc: assoc, Reason: reason}
	}
	if sizeBytes <= 0 || blockBytes <= 0 || assoc <= 0 {
		return bad(fmt.Sprintf("size (%d), block (%d) and associativity (%d) must all be positive", sizeBytes, blockBytes, assoc))
	}
	nlines := sizeBytes / blockBytes
	if nlines == 0 || nlines%assoc != 0 {
		return bad(fmt.Sprintf("%d bytes / %d-byte blocks not divisible into %d-way sets", sizeBytes, blockBytes, assoc))
	}
	if nlines > math.MaxInt32 {
		return bad(fmt.Sprintf("%d lines exceed the page index's range of %d", nlines, math.MaxInt32))
	}
	return nil
}

// NewCache builds a cache of sizeBytes with blockBytes lines and the given
// associativity. sizeBytes must be a multiple of blockBytes*assoc. No line
// is allocated until a Fill needs it.
func NewCache(sizeBytes, blockBytes, assoc int) *Cache {
	if err := checkGeometry("", sizeBytes, blockBytes, assoc); err != nil {
		panic(err)
	}
	c := geometry(sizeBytes, blockBytes, assoc)
	c.pages = make([]int32, c.pageCount())
	return &c
}

// geometry returns a cache of a valid geometry with no page index yet.
func geometry(sizeBytes, blockBytes, assoc int) Cache {
	sets := sizeBytes / blockBytes / assoc
	return Cache{sets: sets, assoc: assoc, mask: uint64(sets - 1), pow2: sets&(sets-1) == 0}
}

// pageCount returns the number of pages the geometry spans.
func (c *Cache) pageCount() int { return (c.sets + pageSets - 1) / pageSets }

// Lines returns the total number of cache lines in the geometry, allocated
// or not.
func (c *Cache) Lines() int { return c.sets * c.assoc }

// setIndex returns block's set number.
func (c *Cache) setIndex(block int64) uint {
	if c.pow2 {
		return uint(uint64(block) & c.mask)
	}
	return uint(uint64(block) % uint64(c.sets))
}

// set returns the slab offset of block's set, or -1 if the set's page was
// never filled.
func (c *Cache) set(block int64) int {
	si := c.setIndex(block)
	p := int(c.pages[si/pageSets])
	if p == 0 {
		return -1
	}
	return p - 1 + int(si%pageSets)*c.assoc
}

// pageLines returns the number of lines page p holds: pageSets sets, or the
// remainder for the last page.
func (c *Cache) pageLines(p int) int {
	return min(pageSets, c.sets-p*pageSets) * c.assoc
}

// allocSet allocates the page holding block's set and returns the set's
// slab offset.
func (c *Cache) allocSet(block int64) int {
	p := int(c.setIndex(block)) / pageSets
	off, n := len(c.lines), c.pageLines(p)
	if off+n > cap(c.lines) {
		// Double the slab, but never past the whole geometry: a cache that
		// touches every page ends with exactly its lines.
		size := min(max(2*cap(c.lines), off+n), c.sets*c.assoc)
		c.lines = append(make([]line, 0, size), c.lines...)
		if c.assoc > 1 {
			c.use = append(make([]uint64, 0, size), c.use...)
		}
	}
	c.lines = c.lines[:off+n]
	if c.assoc > 1 {
		c.use = c.use[:off+n]
	}
	c.pages[p] = int32(off + 1)
	return c.set(block)
}

// way returns the slab index of the line holding block in the set at slab
// offset off (-1 for a set never filled), or -1.
func (c *Cache) way(off int, block int64) int {
	if off < 0 {
		return -1
	}
	for i, l := range c.lines[off : off+c.assoc] {
		if l != 0 && l.block() == block {
			return off + i
		}
	}
	return -1
}

func (c *Cache) find(block int64) int { return c.way(c.set(block), block) }

// stamp records a use of the line at slab index i for LRU.
func (c *Cache) stamp(i int, now uint64) {
	if c.assoc > 1 {
		c.use[i] = now
	}
}

// State returns the line state for block (Invalid if absent).
func (c *Cache) State(block int64) State {
	if i := c.find(block); i >= 0 {
		return c.lines[i].state()
	}
	return Invalid
}

// Touch refreshes the LRU position of block if present.
func (c *Cache) Touch(block int64, now uint64) {
	if i := c.find(block); i >= 0 {
		c.stamp(i, now)
	}
}

// SetState changes the state of a present line to Shared or Dirty; it
// panics if the line is absent, since that indicates a protocol bug.
func (c *Cache) SetState(block int64, s State) {
	i := c.find(block)
	if i < 0 {
		panic(fmt.Sprintf("cache: SetState(%d) on absent block", block))
	}
	c.lines[i] = pack(block, s)
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Valid bool
	Block int64
	Dirty bool
}

// Fill installs block with state st (Shared or Dirty), evicting the LRU
// line of the set if needed, and returns the displaced victim
// (Victim.Valid false if a free way was used). Filling an already-present
// block just updates its state.
func (c *Cache) Fill(block int64, st State, now uint64) Victim {
	return c.fill(c.set(block), block, st, now)
}

// fill is Fill on block's set at slab offset off as c.set returned it (-1
// allocates its page), so a caller that already looked the block up does
// not again.
func (c *Cache) fill(off int, block int64, st State, now uint64) Victim {
	if off < 0 {
		off = c.allocSet(block)
	}
	set := c.lines[off : off+c.assoc]
	vi := -1
	for i, l := range set {
		if l == 0 {
			if vi < 0 {
				vi = i
			}
		} else if l.block() == block {
			set[i] = pack(block, st)
			c.stamp(off+i, now)
			return Victim{}
		}
	}
	var v Victim
	if vi < 0 {
		// Every way is valid: evict the lowest stamp, ties to the lowest
		// way. A direct-mapped set has one candidate.
		vi = 0
		if c.assoc > 1 {
			use := c.use[off : off+c.assoc]
			for i := 1; i < len(use); i++ {
				if use[i] < use[vi] {
					vi = i
				}
			}
		}
		v = Victim{Valid: true, Block: set[vi].block(), Dirty: set[vi].state() == Dirty}
	}
	set[vi] = pack(block, st)
	c.stamp(off+vi, now)
	return v
}

// Invalidate removes block and reports its previous presence and dirtiness.
func (c *Cache) Invalidate(block int64) (present, dirty bool) {
	if i := c.find(block); i >= 0 {
		present, dirty = true, c.lines[i].state() == Dirty
		c.lines[i] = 0
	}
	return present, dirty
}

// Downgrade turns a Dirty line Shared, reporting whether it was dirty.
func (c *Cache) Downgrade(block int64) (wasDirty bool) {
	if i := c.find(block); i >= 0 && c.lines[i].state() == Dirty {
		c.lines[i] = pack(block, Shared)
		return true
	}
	return false
}

// ForEach calls fn for every valid line in set order (used by coherence
// validators, whose reports follow it).
func (c *Cache) ForEach(fn func(block int64, st State)) {
	for p := range c.pages {
		if c.pages[p] == 0 {
			continue
		}
		lo := int(c.pages[p]) - 1
		for _, l := range c.lines[lo : lo+c.pageLines(p)] {
			if l != 0 {
				fn(l.block(), l.state())
			}
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}
