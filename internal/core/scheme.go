// Package core implements the directory entry schemes studied in Gupta,
// Weber & Mowry, "Reducing Memory and Traffic Requirements for Scalable
// Directory-Based Cache Coherence Schemes" (ICPP 1990):
//
//   - Dir_P    — full bit vector (one bit per node)            [§3.1]
//   - Dir_iB   — i limited pointers, broadcast on overflow     [§3.2.1]
//   - Dir_iNB  — i limited pointers, never broadcast           [§3.2.2]
//   - Dir_iX   — superset / composite-pointer scheme           [§3.2.3]
//   - Dir_iCV_r — coarse vector: i pointers that degrade to a
//     coarse bit vector with region size r (the paper's first
//     contribution)                                            [§4.1]
//
// A directory entry tracks, for one memory block, the set of nodes
// (clusters, in DASH terms) that may hold a cached copy, plus a dirty bit
// and owner. Every scheme guarantees that the set it reports via Sharers
// is a superset of the sharers it was told about via AddSharer — that is,
// invalidations sent to Sharers() reach every cached copy; imprecise
// schemes merely send extra ("extraneous") invalidations.
package core

import (
	"fmt"

	"dircoh/internal/bitset"
)

// NodeID identifies a node (a DASH cluster) at directory granularity.
type NodeID = int

// None is the owner value of a non-dirty entry.
const None NodeID = -1

// Entry is the sharing state a directory keeps for one memory block.
//
// Entries are not safe for concurrent use; the simulator serializes all
// accesses at the block's home node, as the hardware does.
type Entry interface {
	// AddSharer records node n as holding a copy. If the representation
	// must drop an existing sharer to make room (Dir_iNB pointer
	// overflow), the dropped nodes are returned and the caller must
	// invalidate their cached copies. The returned slice may be backed by
	// per-entry scratch: it is valid until the entry's next call.
	AddSharer(n NodeID) (evicted []NodeID)

	// RemoveSharer removes node n if the representation can express the
	// removal precisely; otherwise it is a no-op (the entry keeps a
	// stale superset, as DASH does for silent cache replacements).
	RemoveSharer(n NodeID)

	// Sharers returns the candidate sharer set: a superset of every node
	// recorded via AddSharer (and not precisely removed). Invalidations
	// on a write are sent to this set.
	//
	// The returned set is a mutable view backed by per-entry scratch
	// storage: it is valid (and may be freely mutated by the caller)
	// until the next Sharers call on the same entry. State mutations
	// (AddSharer, SetDirty, Reset, ...) never write the scratch, so a
	// view taken before them keeps its contents. This keeps the fanout
	// hot path allocation-free at any node count.
	Sharers() bitset.Set

	// IsSharer reports whether n is in the candidate set.
	IsSharer(n NodeID) bool

	// Count returns the size of the candidate set.
	Count() int

	// Dirty reports whether one node holds the block exclusively.
	Dirty() bool

	// Owner returns the dirty owner, or None.
	Owner() NodeID

	// SetDirty makes owner the sole, exclusive holder. The previous
	// sharer representation is discarded (the caller has already sent
	// the invalidations).
	SetDirty(owner NodeID)

	// ClearDirty downgrades a dirty entry to shared; the former owner
	// remains a sharer.
	ClearDirty()

	// Reset empties the entry entirely.
	Reset()

	// Empty reports whether the entry tracks nothing (safe to reclaim).
	Empty() bool

	// Precise reports whether the candidate set is exactly the recorded
	// sharers (false once a limited scheme has overflowed).
	Precise() bool

	// PopGrant removes and returns a minimal releasable subset of the
	// candidate set, used by queued directory locks (§7 of the paper):
	// a precise representation yields a single node; a coarse vector
	// yields one region; a broadcast yields everything. Like AddSharer's,
	// the returned slice may be backed by per-entry scratch, valid until
	// the entry's next call.
	PopGrant() []NodeID
}

// Scheme is a factory for directory entries of one flavor.
type Scheme interface {
	// Name returns the paper's notation for the scheme, e.g. "Dir3CV2".
	Name() string

	// Nodes returns the number of nodes entries of this scheme track.
	Nodes() int

	// NewEntry returns a fresh, empty entry.
	NewEntry() Entry

	// BitsPerEntry returns the directory state storage cost of one
	// entry in bits, including the dirty bit and any mode flags but
	// excluding sparse-directory tags.
	BitsPerEntry() int

	// EntryBytes returns the approximate resident heap bytes one entry
	// of this scheme occupies in this simulator — the packed pointer
	// words, bit-vector words and scratch the implementation actually
	// allocates, as opposed to BitsPerEntry, the hardware storage the
	// paper accounts. Drivers surface it so memory claims at 1K–4K
	// nodes are regression-guarded numbers, not estimates.
	EntryBytes() int
}

// GeometryError reports an impossible directory-entry geometry — the
// typed form of what the constructors used to panic with, mirroring
// cache.GeometryError. Parse and ParseSpec surface it for notation whose
// parameters only become checkable once the machine size is known.
type GeometryError struct {
	Scheme string // scheme notation or family name
	Ptrs   int    // pointer count (0 when not applicable)
	Region int    // region size (0 when not applicable)
	Nodes  int
	Reason string
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("core: bad %s geometry (ptrs=%d region=%d nodes=%d): %s",
		e.Scheme, e.Ptrs, e.Region, e.Nodes, e.Reason)
}

// Must unwraps a scheme-constructor result, panicking on error. For
// geometries known good statically — tests, examples, registry defaults.
func Must[S Scheme](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}

// log2ceil returns ceil(log2(n)) for n >= 1; pointer width in bits.
func log2ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		return 1 // a pointer needs at least one bit
	}
	return b
}

// sharerScratch is the per-entry scratch bit vector Sharers views are
// built in: allocated lazily on the first Sharers call, cleared and
// refilled on every subsequent one, and never touched by state mutations
// (so views taken before a SetDirty/Reset stay intact — see
// Entry.Sharers).
type sharerScratch struct {
	set bitset.Set
}

// view returns the scratch cleared to width nodes, allocating on first use.
func (s *sharerScratch) view(nodes int) bitset.Set {
	if s.set.Width() != nodes {
		s.set = bitset.New(nodes)
	} else {
		s.set.Clear()
	}
	return s.set
}

// bytes returns the resident size of the scratch once allocated.
func scratchBytes(nodes int) int { return (nodes + 63) / 64 * 8 }
