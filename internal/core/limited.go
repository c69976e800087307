package core

import (
	"fmt"
	"math/rand"

	"dircoh/internal/bitset"
)

// VictimPolicy selects which pointer a Dir_iNB entry drops on overflow.
type VictimPolicy int

const (
	// VictimRandom drops a uniformly random pointer (default; what the
	// paper's replacement discussion assumes for pointer overflow).
	VictimRandom VictimPolicy = iota
	// VictimOldest drops the pointer that was inserted first (FIFO).
	VictimOldest
)

func (p VictimPolicy) String() string {
	switch p {
	case VictimRandom:
		return "random"
	case VictimOldest:
		return "oldest"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", int(p))
	}
}

// checkPtrGeometry validates the common (ptrs, nodes) geometry of the
// limited-pointer families. More pointers than nodes is deliberately NOT
// an error: tiny conformance configs run Dir3CV2 on 2 clusters, where the
// pointers simply never overflow.
func checkPtrGeometry(scheme string, ptrs, region, nodes int) error {
	switch {
	case nodes <= 0:
		return &GeometryError{Scheme: scheme, Ptrs: ptrs, Region: region, Nodes: nodes, Reason: "nodes must be positive"}
	case ptrs <= 0:
		return &GeometryError{Scheme: scheme, Ptrs: ptrs, Region: region, Nodes: nodes, Reason: "pointer count must be positive"}
	}
	return nil
}

// LimitedBroadcast is the Dir_iB scheme (§3.2.1): i pointers plus a
// broadcast bit. Pointer overflow sets the broadcast bit; subsequent writes
// invalidate every node.
type LimitedBroadcast struct {
	nodes int
	ptrs  int
}

// NewLimitedBroadcast returns a Dir_iB scheme with ptrs pointers, or a
// *GeometryError for an impossible geometry.
func NewLimitedBroadcast(ptrs, nodes int) (*LimitedBroadcast, error) {
	if err := checkPtrGeometry(fmt.Sprintf("Dir%dB", ptrs), ptrs, 0, nodes); err != nil {
		return nil, err
	}
	return &LimitedBroadcast{nodes: nodes, ptrs: ptrs}, nil
}

// Name implements Scheme.
func (s *LimitedBroadcast) Name() string { return fmt.Sprintf("Dir%dB", s.ptrs) }

// Nodes implements Scheme.
func (s *LimitedBroadcast) Nodes() int { return s.nodes }

// BitsPerEntry implements Scheme: i pointers, a broadcast bit, a dirty bit.
func (s *LimitedBroadcast) BitsPerEntry() int {
	return s.ptrs*log2ceil(s.nodes) + 2
}

// EntryBytes implements Scheme: the packed pointer words plus the sharer
// scratch, the entry struct itself excluded.
func (s *LimitedBroadcast) EntryBytes() int {
	return (s.ptrs*log2ceil(s.nodes)+63)/64*8 + scratchBytes(s.nodes)
}

// NewEntry implements Scheme.
func (s *LimitedBroadcast) NewEntry() Entry {
	return &broadcastEntry{s: s, ptrs: newPackedPtrs(s.ptrs, s.nodes)}
}

type broadcastEntry struct {
	s       *LimitedBroadcast
	ptrs    packedPtrs
	scratch sharerScratch
	bcast   bool
	dirty   bool
	owner   NodeID
}

func (e *broadcastEntry) AddSharer(n NodeID) []NodeID {
	if e.bcast {
		return nil
	}
	if e.ptrs.Index(n) >= 0 {
		return nil
	}
	if e.ptrs.Full() {
		e.bcast = true
		e.ptrs.Reset()
		return nil
	}
	e.ptrs.Append(n)
	return nil
}

func (e *broadcastEntry) RemoveSharer(n NodeID) {
	if e.bcast {
		return // cannot express removal once broadcasting
	}
	if k := e.ptrs.Index(n); k >= 0 {
		e.ptrs.RemoveSwap(k)
	}
}

func (e *broadcastEntry) Sharers() bitset.Set {
	set := e.scratch.view(e.s.nodes)
	if e.bcast {
		set.Fill()
		return set
	}
	e.ptrs.ForEach(func(p NodeID) { set.Add(p) })
	return set
}

func (e *broadcastEntry) IsSharer(n NodeID) bool {
	return e.bcast || e.ptrs.Index(n) >= 0
}

func (e *broadcastEntry) Count() int {
	if e.bcast {
		return e.s.nodes
	}
	return e.ptrs.Len()
}

func (e *broadcastEntry) Dirty() bool { return e.dirty }

func (e *broadcastEntry) Owner() NodeID {
	if !e.dirty {
		return None
	}
	return e.owner
}

func (e *broadcastEntry) SetDirty(owner NodeID) {
	e.bcast = false
	e.ptrs.Reset()
	e.ptrs.Append(owner)
	e.dirty = true
	e.owner = owner
}

func (e *broadcastEntry) ClearDirty() {
	e.dirty = false
	e.owner = None
}

func (e *broadcastEntry) Reset() {
	e.ptrs.Reset()
	e.bcast = false
	e.dirty = false
	e.owner = None
}

func (e *broadcastEntry) Empty() bool { return !e.dirty && !e.bcast && e.ptrs.Len() == 0 }

func (e *broadcastEntry) Precise() bool { return !e.bcast }

func (e *broadcastEntry) PopGrant() []NodeID {
	if e.bcast {
		out := make([]NodeID, e.s.nodes)
		for i := range out {
			out[i] = i
		}
		e.bcast = false
		return out
	}
	if e.ptrs.Len() == 0 {
		return nil
	}
	n := e.ptrs.At(0)
	e.ptrs.RemoveSwap(0)
	return []NodeID{n}
}

// LimitedNoBroadcast is the Dir_iNB scheme (§3.2.2): i pointers and no
// overflow mechanism — adding an (i+1)-th sharer forces one existing sharer
// to be invalidated. A block can therefore never be cached by more than i
// nodes, which devastates widely read-shared data.
type LimitedNoBroadcast struct {
	nodes  int
	ptrs   int
	policy VictimPolicy
	rng    *rand.Rand
}

// NewLimitedNoBroadcast returns a Dir_iNB scheme, or a *GeometryError for
// an impossible geometry. The seed drives the random victim policy so
// runs are reproducible.
func NewLimitedNoBroadcast(ptrs, nodes int, policy VictimPolicy, seed int64) (*LimitedNoBroadcast, error) {
	if err := checkPtrGeometry(fmt.Sprintf("Dir%dNB", ptrs), ptrs, 0, nodes); err != nil {
		return nil, err
	}
	return &LimitedNoBroadcast{
		nodes:  nodes,
		ptrs:   ptrs,
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Name implements Scheme.
func (s *LimitedNoBroadcast) Name() string { return fmt.Sprintf("Dir%dNB", s.ptrs) }

// Nodes implements Scheme.
func (s *LimitedNoBroadcast) Nodes() int { return s.nodes }

// BitsPerEntry implements Scheme: i pointers plus a dirty bit.
func (s *LimitedNoBroadcast) BitsPerEntry() int {
	return s.ptrs*log2ceil(s.nodes) + 1
}

// EntryBytes implements Scheme.
func (s *LimitedNoBroadcast) EntryBytes() int {
	return (s.ptrs*log2ceil(s.nodes)+63)/64*8 + scratchBytes(s.nodes)
}

// NewEntry implements Scheme.
func (s *LimitedNoBroadcast) NewEntry() Entry {
	return &noBroadcastEntry{s: s, ptrs: newPackedPtrs(s.ptrs, s.nodes)}
}

type noBroadcastEntry struct {
	s       *LimitedNoBroadcast
	ptrs    packedPtrs // insertion order preserved except after random eviction
	scratch sharerScratch
	// evicted and granted back the one-element slices AddSharer and
	// PopGrant return, so a pointer overflow allocates nothing; each is
	// valid until the entry's next call.
	evicted [1]NodeID
	granted [1]NodeID
	dirty   bool
	owner   NodeID
}

func (e *noBroadcastEntry) AddSharer(n NodeID) []NodeID {
	if e.ptrs.Index(n) >= 0 {
		return nil
	}
	if !e.ptrs.Full() {
		e.ptrs.Append(n)
		return nil
	}
	var k int
	switch e.s.policy {
	case VictimOldest:
		k = 0
	default:
		k = e.s.rng.Intn(e.ptrs.Len())
	}
	e.evicted[0] = e.ptrs.At(k)
	// Preserve order for the FIFO policy by shifting.
	e.ptrs.RemoveShift(k)
	e.ptrs.Append(n)
	return e.evicted[:]
}

func (e *noBroadcastEntry) RemoveSharer(n NodeID) {
	if k := e.ptrs.Index(n); k >= 0 {
		e.ptrs.RemoveShift(k)
	}
}

func (e *noBroadcastEntry) Sharers() bitset.Set {
	set := e.scratch.view(e.s.nodes)
	e.ptrs.ForEach(func(p NodeID) { set.Add(p) })
	return set
}

func (e *noBroadcastEntry) IsSharer(n NodeID) bool { return e.ptrs.Index(n) >= 0 }

func (e *noBroadcastEntry) Count() int { return e.ptrs.Len() }

func (e *noBroadcastEntry) Dirty() bool { return e.dirty }

func (e *noBroadcastEntry) Owner() NodeID {
	if !e.dirty {
		return None
	}
	return e.owner
}

func (e *noBroadcastEntry) SetDirty(owner NodeID) {
	e.ptrs.Reset()
	e.ptrs.Append(owner)
	e.dirty = true
	e.owner = owner
}

func (e *noBroadcastEntry) ClearDirty() {
	e.dirty = false
	e.owner = None
}

func (e *noBroadcastEntry) Reset() {
	e.ptrs.Reset()
	e.dirty = false
	e.owner = None
}

func (e *noBroadcastEntry) Empty() bool { return !e.dirty && e.ptrs.Len() == 0 }

func (e *noBroadcastEntry) Precise() bool { return true }

func (e *noBroadcastEntry) PopGrant() []NodeID {
	if e.ptrs.Len() == 0 {
		return nil
	}
	e.granted[0] = e.ptrs.At(0)
	e.ptrs.RemoveShift(0)
	return e.granted[:]
}
