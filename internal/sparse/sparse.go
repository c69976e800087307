// Package sparse implements the paper's second contribution (§4.2): the
// sparse directory, a set-associative directory cache with no backing
// store. One directory entry serves many memory blocks; when an entry must
// be reclaimed, the protocol invalidates every cached copy of the victim
// block, after which the state can safely be discarded.
//
// The package also provides FullMap, a conventional one-entry-per-block
// directory used as the non-sparse baseline.
package sparse

import (
	"fmt"
	"math/rand"
	"strings"

	"dircoh/internal/core"
	"dircoh/internal/obs"
)

// Victim describes a directory entry that was reclaimed to make room.
// The protocol layer must send invalidations to Entry's sharers (or the
// dirty owner) for block Block before reusing the slot.
type Victim struct {
	Block int64
	Entry core.Entry
}

// Directory is the storage abstraction the directory controller talks to.
// now is the current simulation cycle, used for recency bookkeeping.
type Directory interface {
	// Lookup returns the live entry for block, or nil if none is present.
	Lookup(block int64, now uint64) core.Entry

	// Peek returns the live entry for block without touching recency
	// state or metrics — the read-only lookup validators and samplers
	// use, guaranteed not to perturb replacement decisions.
	Peek(block int64) core.Entry

	// Allocate returns the entry for block, creating one if necessary.
	// If creating one required reclaiming a different block's entry, the
	// reclaimed state is returned as victim.
	Allocate(block int64, now uint64) (e core.Entry, victim *Victim)

	// Release informs the directory that block's entry is empty and its
	// slot may be reused without invalidations.
	Release(block int64)

	// Entries returns the total number of entry slots (0 = unbounded).
	Entries() int

	// PeakEntries returns the maximum number of simultaneously live
	// entries observed — the quantity behind §4.2's observation that a
	// full directory is almost entirely empty at any instant.
	PeakEntries() int

	// LiveEntries returns the number of currently live entries, cheap
	// enough to call from a periodic occupancy sampler.
	LiveEntries() int

	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats counts directory storage events.
type Stats struct {
	Lookups      uint64 // Lookup + Allocate calls
	Hits         uint64 // calls that found a live entry
	Allocations  uint64 // entries created
	Replacements uint64 // allocations that reclaimed a live victim
}

// dirMetrics holds a directory's registry-backed counter handles, resolved
// once at construction ("dir.lookup", "dir.hit", "dir.alloc",
// "sparse.evict"). With a shared registry the counters aggregate over every
// directory wired to it (the machine's per-cluster directories); Stats()
// then reports that aggregate, not a per-instance count.
type dirMetrics struct {
	lookups *obs.Counter
	hits    *obs.Counter
	allocs  *obs.Counter
	evicts  *obs.Counter
}

func newDirMetrics(reg *obs.Registry) dirMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return dirMetrics{
		lookups: reg.Counter("dir.lookup"),
		hits:    reg.Counter("dir.hit"),
		allocs:  reg.Counter("dir.alloc"),
		evicts:  reg.Counter("sparse.evict"),
	}
}

func (m dirMetrics) stats() Stats {
	return Stats{
		Lookups:      m.lookups.Value(),
		Hits:         m.hits.Value(),
		Allocations:  m.allocs.Value(),
		Replacements: m.evicts.Value(),
	}
}

// ReplacePolicy selects the victim within a set.
type ReplacePolicy int

const (
	// LRU replaces the least-recently-used entry (best, hardest to build).
	LRU ReplacePolicy = iota
	// Random replaces a uniformly random entry (easiest in hardware; the
	// paper shows it beats LRA).
	Random
	// LRA replaces the least-recently-allocated entry.
	LRA
)

func (p ReplacePolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case Random:
		return "Rand"
	case LRA:
		return "LRA"
	default:
		return fmt.Sprintf("ReplacePolicy(%d)", int(p))
	}
}

// ParsePolicy parses a replacement policy name, in any case: lru, rand
// (or random) or lra. "" is LRU, the default.
func ParsePolicy(name string) (ReplacePolicy, error) {
	switch strings.ToLower(name) {
	case "", "lru":
		return LRU, nil
	case "rand", "random":
		return Random, nil
	case "lra":
		return LRA, nil
	}
	return 0, fmt.Errorf("unknown replacement policy %q (want lru, rand or lra)", name)
}

// FullMap is the non-sparse baseline: one (lazily materialized) entry per
// memory block, never any replacement. Its map is made by the first
// Allocate, so a home that never tracks a block pays nothing.
type FullMap struct {
	scheme  core.Scheme
	entries map[int64]core.Entry
	peak    int
	m       dirMetrics
}

// NewFullMap returns an unbounded directory using the given entry scheme,
// recording into reg (nil creates a private registry).
func NewFullMap(scheme core.Scheme, reg *obs.Registry) *FullMap {
	d := new(FullMap)
	d.Init(scheme, reg)
	return d
}

// Init makes d, which may sit in a slice of directories, an empty
// NewFullMap(scheme, reg).
func (d *FullMap) Init(scheme core.Scheme, reg *obs.Registry) {
	*d = FullMap{scheme: scheme, m: newDirMetrics(reg)}
}

// Lookup implements Directory.
func (d *FullMap) Lookup(block int64, _ uint64) core.Entry {
	d.m.lookups.Inc()
	if e, ok := d.entries[block]; ok {
		d.m.hits.Inc()
		return e
	}
	return nil
}

// Allocate implements Directory.
func (d *FullMap) Allocate(block int64, _ uint64) (core.Entry, *Victim) {
	d.m.lookups.Inc()
	if e, ok := d.entries[block]; ok {
		d.m.hits.Inc()
		return e, nil
	}
	e := d.scheme.NewEntry()
	if d.entries == nil {
		d.entries = make(map[int64]core.Entry)
	}
	d.entries[block] = e
	if len(d.entries) > d.peak {
		d.peak = len(d.entries)
	}
	d.m.allocs.Inc()
	return e, nil
}

// Peek implements Directory.
func (d *FullMap) Peek(block int64) core.Entry { return d.entries[block] }

// Release implements Directory.
func (d *FullMap) Release(block int64) { delete(d.entries, block) }

// Entries implements Directory: a full map is unbounded.
func (d *FullMap) Entries() int { return 0 }

// PeakEntries implements Directory.
func (d *FullMap) PeakEntries() int { return d.peak }

// LiveEntries implements Directory.
func (d *FullMap) LiveEntries() int { return len(d.entries) }

// Stats implements Directory.
func (d *FullMap) Stats() Stats { return d.m.stats() }

// Sparse is the set-associative sparse directory.
type Sparse struct {
	scheme core.Scheme
	sets   int
	assoc  int
	policy ReplacePolicy
	rng    *rand.Rand
	lines  []line // sets*assoc lines; set i occupies lines[i*assoc : (i+1)*assoc]
	live   int
	peak   int
	m      dirMetrics
}

type line struct {
	valid     bool
	block     int64
	entry     core.Entry
	lastUse   uint64
	allocTime uint64
}

// Config configures a sparse directory.
type Config struct {
	Scheme  core.Scheme
	Entries int           // total entry slots; rounded up to a multiple of Assoc
	Assoc   int           // associativity (1 = direct mapped)
	Policy  ReplacePolicy // victim selection within a set
	Seed    int64         // drives the Random policy
	Metrics *obs.Registry // nil creates a private registry
}

// Validate checks the configuration for every error New would otherwise
// panic over, so flag-derived entry counts fail with a message instead of
// a stack trace. New still panics: direct library misuse is a programming
// error.
func (cfg Config) Validate() error {
	if cfg.Scheme == nil {
		return fmt.Errorf("sparse: a directory entry scheme is required")
	}
	if cfg.Entries <= 0 {
		return fmt.Errorf("sparse: Entries must be positive (got %d)", cfg.Entries)
	}
	if cfg.Assoc < 0 {
		return fmt.Errorf("sparse: Assoc must not be negative (got %d)", cfg.Assoc)
	}
	return nil
}

// New returns a sparse directory with cfg.Entries slots.
func New(cfg Config) *Sparse {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 1
	}
	sets := (cfg.Entries + cfg.Assoc - 1) / cfg.Assoc
	return &Sparse{
		scheme: cfg.Scheme,
		sets:   sets,
		assoc:  cfg.Assoc,
		policy: cfg.Policy,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		lines:  make([]line, sets*cfg.Assoc),
		m:      newDirMetrics(cfg.Metrics),
	}
}

// Entries implements Directory.
func (d *Sparse) Entries() int { return d.sets * d.assoc }

// Assoc returns the directory's associativity.
func (d *Sparse) Assoc() int { return d.assoc }

// Stats implements Directory.
func (d *Sparse) Stats() Stats { return d.m.stats() }

// SetIndex returns the set a directory key maps to in a directory with
// sets sets — the pure indexing rule behind Sparse, shared with the model
// checker's directory mirror.
func SetIndex(block int64, sets int) int {
	return int(uint64(block) % uint64(sets))
}

// PickVictimIndex returns the index in [0, n) whose recency key is
// smallest, the first index winning ties — the pure victim-selection rule
// behind the LRU (lastUse keys) and LRA (allocTime keys) policies, shared
// with the model checker's normalized-rank directory.
func PickVictimIndex(n int, key func(int) uint64) int {
	best := 0
	for i := 1; i < n; i++ {
		if key(i) < key(best) {
			best = i
		}
	}
	return best
}

func (d *Sparse) set(block int64) []line {
	return d.lines[SetIndex(block, d.sets)*d.assoc : (SetIndex(block, d.sets)+1)*d.assoc]
}

// Lookup implements Directory.
func (d *Sparse) Lookup(block int64, now uint64) core.Entry {
	d.m.lookups.Inc()
	set := d.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			d.m.hits.Inc()
			set[i].lastUse = now
			return set[i].entry
		}
	}
	return nil
}

// Peek implements Directory.
func (d *Sparse) Peek(block int64) core.Entry {
	set := d.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			return set[i].entry
		}
	}
	return nil
}

// Allocate implements Directory.
func (d *Sparse) Allocate(block int64, now uint64) (core.Entry, *Victim) {
	d.m.lookups.Inc()
	set := d.set(block)
	free := -1
	for i := range set {
		if set[i].valid && set[i].block == block {
			d.m.hits.Inc()
			set[i].lastUse = now
			return set[i].entry, nil
		}
		if !set[i].valid && free < 0 {
			free = i
		}
	}
	d.m.allocs.Inc()
	if free >= 0 {
		return d.install(&set[free], block, now), nil
	}
	// All ways live: reclaim one according to policy. The victim's entry
	// leaves with the Victim (its recall still reads it), so the slot
	// gets a fresh one.
	vi := d.pickVictim(set)
	d.m.evicts.Inc()
	victim := &Victim{Block: set[vi].block, Entry: set[vi].entry}
	set[vi].entry = nil
	d.install(&set[vi], block, now)
	return set[vi].entry, victim
}

// install makes l the live line for block. A slot freed by Release kept
// its entry, reset, and reuses it; only a slot that never held one, or
// whose entry left with a victim, builds a new one.
func (d *Sparse) install(l *line, block int64, now uint64) core.Entry {
	if !l.valid {
		d.live++
		if d.live > d.peak {
			d.peak = d.live
		}
	}
	l.valid = true
	l.block = block
	if l.entry == nil {
		l.entry = d.scheme.NewEntry()
	}
	l.lastUse = now
	l.allocTime = now
	return l.entry
}

func (d *Sparse) pickVictim(set []line) int {
	switch d.policy {
	case Random:
		return d.rng.Intn(len(set))
	case LRA:
		return PickVictimIndex(len(set), func(i int) uint64 { return set[i].allocTime })
	default: // LRU
		return PickVictimIndex(len(set), func(i int) uint64 { return set[i].lastUse })
	}
}

// Release implements Directory. The freed slot keeps its entry, reset,
// for the next install: a reset entry behaves exactly like a new one.
func (d *Sparse) Release(block int64) {
	set := d.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			set[i].valid = false
			set[i].entry.Reset()
			d.live--
			return
		}
	}
}

// PeakEntries implements Directory.
func (d *Sparse) PeakEntries() int { return d.peak }

// LiveEntries implements Directory.
func (d *Sparse) LiveEntries() int { return d.live }

// Occupancy returns the number of live entries (for tests and reports).
func (d *Sparse) Occupancy() int {
	n := 0
	for i := range d.lines {
		if d.lines[i].valid {
			n++
		}
	}
	return n
}
