// Package cache models the processor cache hierarchy of a DASH node: a
// primary (L1) and an inclusive secondary (L2) set-associative cache with
// MSI states, LRU replacement within a set, writeback of dirty victims and
// silent drop of shared victims.
//
// Addresses are pre-divided block numbers: the machine layer converts byte
// addresses to blocks before touching the caches.
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

// line is one cache way. Field order packs it into 24 bytes: the two
// words, then the two bytes.
type line struct {
	block   int64
	lastUse uint64
	valid   bool
	state   State
}

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
	// pages maps page p, sets [p*pageSets, (p+1)*pageSets), to 1 + the
	// slab offset of its first line; 0 means the page was never filled.
	pages []int32
	lines []line
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
	sets := sizeBytes / blockBytes / assoc
	return &Cache{sets: sets, assoc: assoc, pages: make([]int32, (sets+pageSets-1)/pageSets)}
}

// Lines returns the total number of cache lines in the geometry, allocated
// or not.
func (c *Cache) Lines() int { return c.sets * c.assoc }

// set returns block's set, or nil if the set's page was never filled.
func (c *Cache) set(block int64) []line {
	si := uint(uint64(block) % uint64(c.sets))
	p := uint(c.pages[si/pageSets])
	if p == 0 {
		return nil
	}
	return c.lines[p-1+si%pageSets*uint(c.assoc):][:c.assoc]
}

// pageLines returns the number of lines page p holds: pageSets sets, or the
// remainder for the last page.
func (c *Cache) pageLines(p int) int {
	return min(pageSets, c.sets-p*pageSets) * c.assoc
}

// allocSet allocates the page holding block's set and returns the set.
func (c *Cache) allocSet(block int64) []line {
	p := int(uint64(block)%uint64(c.sets)) / pageSets
	off, n := len(c.lines), c.pageLines(p)
	if off+n > cap(c.lines) {
		// Double the slab, but never past the whole geometry: a cache that
		// touches every page ends with exactly its lines.
		grown := make([]line, off, min(max(2*cap(c.lines), off+n), c.sets*c.assoc))
		copy(grown, c.lines)
		c.lines = grown
	}
	c.lines = c.lines[:off+n]
	c.pages[p] = int32(off + 1)
	return c.set(block)
}

// way returns the line of set holding block, or nil.
func way(set []line, block int64) *line {
	for i := range set {
		if set[i].valid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

func (c *Cache) find(block int64) *line { return way(c.set(block), block) }

// State returns the line state for block (Invalid if absent).
func (c *Cache) State(block int64) State {
	if l := c.find(block); l != nil {
		return l.state
	}
	return Invalid
}

// Touch refreshes the LRU position of block if present.
func (c *Cache) Touch(block int64, now uint64) {
	if l := c.find(block); l != nil {
		l.lastUse = now
	}
}

// SetState changes the state of a present line; it panics if absent, since
// that indicates a protocol bug.
func (c *Cache) SetState(block int64, s State) {
	l := c.find(block)
	if l == nil {
		panic(fmt.Sprintf("cache: SetState(%d) on absent block", block))
	}
	l.state = s
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Valid bool
	Block int64
	Dirty bool
}

// Fill installs block with state st, evicting the LRU line of the set if
// needed, and returns the displaced victim (Victim.Valid false if a free
// way was used). Filling an already-present block just updates its state.
func (c *Cache) Fill(block int64, st State, now uint64) Victim {
	return c.fill(c.set(block), block, st, now)
}

// fill is Fill on block's set as c.set returned it (nil allocates its
// page), so a caller that already looked the block up does not again.
func (c *Cache) fill(set []line, block int64, st State, now uint64) Victim {
	if set == nil {
		set = c.allocSet(block)
	}
	vi := -1
	for i := range set {
		if !set[i].valid {
			if vi < 0 {
				vi = i
			}
		} else if set[i].block == block {
			set[i].state = st
			set[i].lastUse = now
			return Victim{}
		}
	}
	var v Victim
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[vi].lastUse {
				vi = i
			}
		}
		v = Victim{Valid: true, Block: set[vi].block, Dirty: set[vi].state == Dirty}
	}
	set[vi] = line{valid: true, block: block, state: st, lastUse: now}
	return v
}

// Invalidate removes block and reports its previous presence and dirtiness.
func (c *Cache) Invalidate(block int64) (present, dirty bool) {
	if l := c.find(block); l != nil {
		present, dirty = true, l.state == Dirty
		l.valid = false
	}
	return present, dirty
}

// Downgrade turns a Dirty line Shared, reporting whether it was dirty.
func (c *Cache) Downgrade(block int64) (wasDirty bool) {
	if l := c.find(block); l != nil && l.state == Dirty {
		l.state = Shared
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
		for i := lo; i < lo+c.pageLines(p); i++ {
			if c.lines[i].valid {
				fn(c.lines[i].block, c.lines[i].state)
			}
		}
	}
}

// Occupancy returns the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
