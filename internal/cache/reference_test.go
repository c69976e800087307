package cache

import "fmt"

// refCache and refHierarchy are the unpaged implementation the package
// shipped before caches allocated lines per touched page: every line of
// the geometry in one slice, and a fresh set lookup per call. They are
// kept verbatim, with only the type names prefixed and the constructors
// renamed, as the reference FuzzHierarchyMatchesReference holds the paged
// implementation to. The types they share with it (State, Victim, Stats,
// Config, AccessResult) did not change.

type refLine struct {
	valid   bool
	block   int64
	state   State
	lastUse uint64
}

// refCache is a single set-associative cache level.
type refCache struct {
	sets  int
	assoc int
	lines []refLine
}

// newRefCache builds a cache of sizeBytes with blockBytes lines and the given
// associativity. sizeBytes must be a multiple of blockBytes*assoc.
func newRefCache(sizeBytes, blockBytes, assoc int) *refCache {
	if sizeBytes <= 0 || blockBytes <= 0 || assoc <= 0 {
		panic("cache: sizes must be positive")
	}
	nlines := sizeBytes / blockBytes
	if nlines == 0 || nlines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d bytes / %d-byte blocks not divisible into %d-way sets", sizeBytes, blockBytes, assoc))
	}
	return &refCache{sets: nlines / assoc, assoc: assoc, lines: make([]refLine, nlines)}
}

// Lines returns the total number of cache lines.
func (c *refCache) Lines() int { return len(c.lines) }

func (c *refCache) set(block int64) []refLine {
	si := int(uint64(block) % uint64(c.sets))
	return c.lines[si*c.assoc : (si+1)*c.assoc]
}

func (c *refCache) find(block int64) *refLine {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

// State returns the line state for block (Invalid if absent).
func (c *refCache) State(block int64) State {
	if l := c.find(block); l != nil {
		return l.state
	}
	return Invalid
}

// Touch refreshes the LRU position of block if present.
func (c *refCache) Touch(block int64, now uint64) {
	if l := c.find(block); l != nil {
		l.lastUse = now
	}
}

// SetState changes the state of a present line; it panics if absent, since
// that indicates a protocol bug.
func (c *refCache) SetState(block int64, s State) {
	l := c.find(block)
	if l == nil {
		panic(fmt.Sprintf("cache: SetState(%d) on absent block", block))
	}
	l.state = s
}

// Fill installs block with state st, evicting the LRU line of the set if
// needed, and returns the displaced victim (Victim.Valid false if a free
// way was used). Filling an already-present block just updates its state.
func (c *refCache) Fill(block int64, st State, now uint64) Victim {
	if l := c.find(block); l != nil {
		l.state = st
		l.lastUse = now
		return Victim{}
	}
	set := c.set(block)
	vi := -1
	for i := range set {
		if !set[i].valid {
			vi = i
			break
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
	set[vi] = refLine{valid: true, block: block, state: st, lastUse: now}
	return v
}

// Invalidate removes block and reports its previous presence and dirtiness.
func (c *refCache) Invalidate(block int64) (present, dirty bool) {
	if l := c.find(block); l != nil {
		present, dirty = true, l.state == Dirty
		l.valid = false
	}
	return present, dirty
}

// Downgrade turns a Dirty line Shared, reporting whether it was dirty.
func (c *refCache) Downgrade(block int64) (wasDirty bool) {
	if l := c.find(block); l != nil && l.state == Dirty {
		l.state = Shared
		return true
	}
	return false
}

// ForEach calls fn for every valid line (used by coherence validators).
func (c *refCache) ForEach(fn func(block int64, st State)) {
	for i := range c.lines {
		if c.lines[i].valid {
			fn(c.lines[i].block, c.lines[i].state)
		}
	}
}

// Occupancy returns the number of valid lines (for tests).
func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// refHierarchy is an inclusive L1+L2 pair, as in a DASH processor.
type refHierarchy struct {
	l1, l2 *refCache
	stats  Stats
}

// newRefHierarchy builds the two levels from cfg. L2 must be at least as
// large as L1 (inclusion).
func newRefHierarchy(cfg Config) *refHierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &refHierarchy{
		l1: newRefCache(cfg.L1Size, cfg.Block, cfg.L1Assoc),
		l2: newRefCache(cfg.L2Size, cfg.Block, cfg.L2Assoc),
	}
}

// Stats returns cumulative counters.
func (h *refHierarchy) Stats() Stats { return h.stats }

// Lines returns the number of L2 lines (the unit the sparse directory is
// sized against).
func (h *refHierarchy) Lines() int { return h.l2.Lines() }

// State returns the authoritative (L2) state for block.
func (h *refHierarchy) State(block int64) State { return h.l2.State(block) }

// Access performs a read or write lookup. On Hit the line states are
// updated (a write hit on Dirty stays Dirty). On MissUpgrade/Miss the
// caller must run the protocol and then call FillShared/FillDirty or
// Upgrade.
func (h *refHierarchy) Access(block int64, write bool, now uint64) AccessResult {
	if write {
		h.stats.Writes++
	} else {
		h.stats.Reads++
	}
	st1 := h.l1.State(block)
	if st1 == Dirty || (st1 == Shared && !write) {
		h.stats.L1Hits++
		h.l1.Touch(block, now)
		h.l2.Touch(block, now)
		return Hit
	}
	st2 := h.l2.State(block)
	if st2 == Dirty || (st2 == Shared && !write) {
		h.stats.L2Hits++
		h.l2.Touch(block, now)
		// Refill L1 from L2 (inclusion guarantees L2 keeps the block;
		// an L1 victim's dirtiness is already reflected in L2 state).
		h.fillL1(block, st2, now)
		return Hit
	}
	if st2 == Shared && write {
		h.stats.Upgrades++
		return MissUpgrade
	}
	h.stats.Misses++
	return Miss
}

// fillL1 installs block in L1, folding any dirty victim state into L2.
func (h *refHierarchy) fillL1(block int64, st State, now uint64) {
	v := h.l1.Fill(block, st, now)
	if v.Valid && v.Dirty {
		// Inclusion: the victim must still be in L2; record dirtiness.
		h.l2.SetState(v.Block, Dirty)
	}
}

// Fill installs block with state st in both levels and returns the L2
// victim (if any) so the machine can send a writeback or drop it silently.
func (h *refHierarchy) Fill(block int64, st State, now uint64) Victim {
	v2 := h.l2.Fill(block, st, now)
	if v2.Valid {
		h.stats.Evictions++
		// Inclusion: purge the victim from L1; its dirtiness wins.
		if _, d1 := h.l1.Invalidate(v2.Block); d1 {
			v2.Dirty = true
		}
		if v2.Dirty {
			h.stats.DirtyEv++
		}
	}
	h.fillL1(block, st, now)
	return v2
}

// Upgrade marks an existing Shared copy Dirty after ownership arrives.
func (h *refHierarchy) Upgrade(block int64, now uint64) {
	h.l2.SetState(block, Dirty)
	h.fillL1(block, Dirty, now)
}

// Invalidate removes block from both levels; reports presence and whether
// any level held it dirty.
func (h *refHierarchy) Invalidate(block int64) (present, dirty bool) {
	p1, d1 := h.l1.Invalidate(block)
	p2, d2 := h.l2.Invalidate(block)
	return p1 || p2, d1 || d2
}

// ForEach calls fn for every block present in the hierarchy with its
// authoritative (L2) state.
func (h *refHierarchy) ForEach(fn func(block int64, st State)) {
	h.l2.ForEach(fn)
}

// Downgrade demotes a dirty copy to shared in both levels; reports whether
// it was dirty.
func (h *refHierarchy) Downgrade(block int64) bool {
	d1 := h.l1.Downgrade(block)
	d2 := h.l2.Downgrade(block)
	return d1 || d2
}
