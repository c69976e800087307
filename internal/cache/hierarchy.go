package cache

import "fmt"

// Config sizes a two-level hierarchy. Sizes are in bytes.
type Config struct {
	L1Size  int
	L1Assoc int
	L2Size  int
	L2Assoc int
	Block   int
}

// DefaultConfig mirrors the DASH prototype (§5): 64 KB primary and 256 KB
// secondary caches with 16-byte blocks.
func DefaultConfig() Config {
	return Config{L1Size: 64 << 10, L1Assoc: 1, L2Size: 256 << 10, L2Assoc: 1, Block: 16}
}

// Validate checks the geometry for every error NewHierarchy (and the
// NewCache calls under it) would otherwise panic over, so flag-derived
// configurations can be rejected with a message instead of a stack trace.
// Constructors still panic on invalid input: direct library misuse is a
// programming error.
func (c Config) Validate() error {
	if err := checkGeometry("L1", c.L1Size, c.Block, c.L1Assoc); err != nil {
		return err
	}
	if err := checkGeometry("L2", c.L2Size, c.Block, c.L2Assoc); err != nil {
		return err
	}
	if c.L2Size < c.L1Size {
		return &GeometryError{Level: "L2", Size: c.L2Size, Block: c.Block, Assoc: c.L2Assoc,
			Reason: fmt.Sprintf("L2 (%d bytes) smaller than L1 (%d bytes) violates inclusion", c.L2Size, c.L1Size)}
	}
	return nil
}

// Stats counts hierarchy accesses.
type Stats struct {
	Reads     uint64
	Writes    uint64
	L1Hits    uint64
	L2Hits    uint64 // L1 miss, L2 sufficient
	Misses    uint64 // needed the directory protocol
	Upgrades  uint64 // write hit on a Shared copy (needs ownership)
	Evictions uint64 // L2 victims
	DirtyEv   uint64 // L2 victims that needed writeback
}

// Hierarchy is an inclusive L1+L2 pair, as in a DASH processor.
type Hierarchy struct {
	l1, l2 Cache
	stats  Stats
}

// NewHierarchy builds the two levels from cfg. L2 must be at least as
// large as L1 (inclusion).
func NewHierarchy(cfg Config) *Hierarchy {
	return &NewHierarchies(cfg, 1)[0]
}

// NewHierarchies builds n hierarchies from cfg in one slice, every cache's
// page index carved from one shared array, so building a machine's caches
// costs the same few allocations at any processor count.
func NewHierarchies(cfg Config, n int) []Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l1 := geometry(cfg.L1Size, cfg.Block, cfg.L1Assoc)
	l2 := geometry(cfg.L2Size, cfg.Block, cfg.L2Assoc)
	p1, p2 := l1.pageCount(), l2.pageCount()
	index := make([]int32, n*(p1+p2))
	hs := make([]Hierarchy, n)
	for i := range hs {
		h := &hs[i]
		h.l1, h.l2 = l1, l2
		h.l1.pages, index = index[:p1:p1], index[p1:]
		h.l2.pages, index = index[:p2:p2], index[p2:]
	}
	return hs
}

// Stats returns cumulative counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Lines returns the number of L2 lines (the unit the sparse directory is
// sized against).
func (h *Hierarchy) Lines() int { return h.l2.Lines() }

// State returns the authoritative (L2) state for block.
func (h *Hierarchy) State(block int64) State { return h.l2.State(block) }

// AccessResult says what the hierarchy could satisfy locally.
type AccessResult int

const (
	// Hit means the access completed in-cache.
	Hit AccessResult = iota
	// MissUpgrade means a write found a Shared copy: ownership (but no
	// data) is needed.
	MissUpgrade
	// Miss means no usable copy: data (and ownership, for writes) is
	// needed from the protocol.
	Miss
)

// usable reports whether a line in state st satisfies the access locally.
func usable(st State, write bool) bool {
	return st == Dirty || (st == Shared && !write)
}

// Access performs a read or write lookup. On Hit the line states are
// updated (a write hit on Dirty stays Dirty). On MissUpgrade/Miss the
// caller must run the protocol and then call FillShared/FillDirty or
// Upgrade. Each level's set is looked up once.
func (h *Hierarchy) Access(block int64, write bool, now uint64) AccessResult {
	if write {
		h.stats.Writes++
	} else {
		h.stats.Reads++
	}
	s1 := h.l1.set(block)
	if i := h.l1.way(s1, block); i >= 0 && usable(h.l1.lines[i].state(), write) {
		h.stats.L1Hits++
		h.l1.stamp(i, now)
		// A one-way set never reads its stamps, so a direct-mapped L2 (the
		// paper's geometry) skips its lookup.
		if h.l2.assoc > 1 {
			if j := h.l2.find(block); j >= 0 {
				h.l2.use[j] = now
			}
		}
		return Hit
	}
	j := h.l2.find(block)
	st2 := Invalid
	if j >= 0 {
		st2 = h.l2.lines[j].state()
	}
	if usable(st2, write) {
		h.stats.L2Hits++
		h.l2.stamp(j, now)
		// Refill L1 from L2 (inclusion guarantees L2 keeps the block;
		// an L1 victim's dirtiness is already reflected in L2 state).
		h.fillL1(s1, block, st2, now)
		return Hit
	}
	if st2 == Shared && write {
		h.stats.Upgrades++
		return MissUpgrade
	}
	h.stats.Misses++
	return Miss
}

// fillL1 installs block in L1, whose set for it is at slab offset s1 as
// Cache.set returned it, folding any dirty victim state into L2.
func (h *Hierarchy) fillL1(s1 int, block int64, st State, now uint64) {
	v := h.l1.fill(s1, block, st, now)
	if v.Valid && v.Dirty {
		// Inclusion: the victim must still be in L2; record dirtiness.
		h.l2.SetState(v.Block, Dirty)
	}
}

// Fill installs block with state st in both levels and returns the L2
// victim (if any) so the machine can send a writeback or drop it silently.
func (h *Hierarchy) Fill(block int64, st State, now uint64) Victim {
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
	h.fillL1(h.l1.set(block), block, st, now)
	return v2
}

// Upgrade marks an existing Shared copy Dirty after ownership arrives.
func (h *Hierarchy) Upgrade(block int64, now uint64) {
	h.l2.SetState(block, Dirty)
	h.fillL1(h.l1.set(block), block, Dirty, now)
}

// Invalidate removes block from both levels; reports presence and whether
// any level held it dirty.
func (h *Hierarchy) Invalidate(block int64) (present, dirty bool) {
	p1, d1 := h.l1.Invalidate(block)
	p2, d2 := h.l2.Invalidate(block)
	return p1 || p2, d1 || d2
}

// Occupancy returns the number of blocks present in the hierarchy: its
// L2's valid lines, which ForEach visits.
func (h *Hierarchy) Occupancy() int { return h.l2.Occupancy() }

// ForEach calls fn for every block present in the hierarchy with its
// authoritative (L2) state.
func (h *Hierarchy) ForEach(fn func(block int64, st State)) {
	h.l2.ForEach(fn)
}

// Downgrade demotes a dirty copy to shared in both levels; reports whether
// it was dirty.
func (h *Hierarchy) Downgrade(block int64) bool {
	d1 := h.l1.Downgrade(block)
	d2 := h.l2.Downgrade(block)
	return d1 || d2
}
