// Package tango is the execution-driven workload substrate standing in for
// the Tango reference generator the paper used (§5). A workload produces
// one reference stream per simulated processor; the machine pulls the next
// reference of a processor only when its previous reference has completed,
// and lock/unlock/barrier references enforce the same cross-processor
// orderings a real execution would, with timing feedback from the memory
// system deciding the interleaving.
//
// Only shared references are generated, matching the paper's methodology
// (Table 2 counts shared references only).
package tango

import "fmt"

// Op is a shared-memory reference kind.
type Op uint8

const (
	// Read is a shared-data load.
	Read Op = iota
	// Write is a shared-data store.
	Write
	// Lock acquires the lock at the reference address.
	Lock
	// Unlock releases the lock at the reference address.
	Unlock
	// Barrier waits until every processor has arrived at the same
	// barrier address.
	Barrier
)

func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	case Lock:
		return "lock"
	case Unlock:
		return "unlock"
	case Barrier:
		return "barrier"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsSync reports whether the op is a synchronization operation.
func (o Op) IsSync() bool { return o == Lock || o == Unlock || o == Barrier }

// Ref is one shared reference, an operation on a byte address, packed in
// one word: the op in the top 3 bits and the address in the low 61. A
// workload's streams are the largest data a run keeps from start to end,
// so a reference keeps only the bits the machine reads.
type Ref uint64

// addrBits is the width of a Ref's address field.
const addrBits = 61

// MaxAddr is the highest byte address a Ref holds.
const MaxAddr = 1<<addrBits - 1

// MakeRef packs op and addr into one Ref. It panics on an unknown op or an address
// outside [0, MaxAddr]: only a generator bug produces either, and the
// trace parser rejects such input before building a Ref.
func MakeRef(op Op, addr int64) Ref {
	if op > Barrier || uint64(addr) > MaxAddr {
		panic(badRef{op, addr})
	}
	return Ref(uint64(op)<<addrBits | uint64(addr))
}

// badRef is MakeRef's panic value. Building its message only when the
// panic prints keeps MakeRef small enough to inline into every Builder
// append.
type badRef struct {
	op   Op
	addr int64
}

func (b badRef) Error() string {
	return fmt.Sprintf("tango: no reference for %v at %#x (addresses lie in [0, %#x])", b.op, b.addr, int64(MaxAddr))
}

// Op returns the reference's operation.
func (r Ref) Op() Op { return Op(r >> addrBits) }

// Addr returns the reference's byte address.
func (r Ref) Addr() int64 { return int64(r & MaxAddr) }

func (r Ref) String() string { return fmt.Sprintf("%v %#x", r.Op(), r.Addr()) }

// Stream is a per-processor reference sequence, consumed in order.
type Stream struct {
	refs []Ref
	pos  int
}

// NewStream wraps a pre-generated reference slice. A Stream is a value, so
// its owner can hold it inline.
func NewStream(refs []Ref) Stream { return Stream{refs: refs} }

// Next returns the next reference; ok is false when the stream is done.
func (s *Stream) Next() (r Ref, ok bool) {
	if s.pos >= len(s.refs) {
		return 0, false
	}
	r = s.refs[s.pos]
	s.pos++
	return r, true
}

// Len returns the total number of references in the stream.
func (s *Stream) Len() int { return len(s.refs) }

// Remaining returns the number of references not yet consumed.
func (s *Stream) Remaining() int { return len(s.refs) - s.pos }

// Workload is a parallel application: a name, a set of per-processor
// reference streams, and the size of the shared data it touches.
type Workload struct {
	Name        string
	Streams     [][]Ref // one slice per processor
	SharedBytes int64   // shared space touched (Table 2's last column)
}

// Procs returns the number of processors the workload was generated for.
func (w *Workload) Procs() int { return len(w.Streams) }

// Characteristics are the Table 2 columns for one workload.
type Characteristics struct {
	SharedRefs   uint64
	SharedReads  uint64
	SharedWrites uint64
	SyncOps      uint64
	SharedBytes  int64
}

// Characterize computes Table 2 statistics from the raw streams.
func (w *Workload) Characterize() Characteristics {
	var c Characteristics
	c.SharedBytes = w.SharedBytes
	for _, s := range w.Streams {
		for _, r := range s {
			switch r.Op() {
			case Read:
				c.SharedRefs++
				c.SharedReads++
			case Write:
				c.SharedRefs++
				c.SharedWrites++
			default:
				c.SyncOps++
			}
		}
	}
	return c
}

// WordBytes is the reference granularity: one 8-byte word.
const WordBytes = 8

// Allocator hands out non-overlapping shared regions, block-aligned so
// that distinct arrays never false-share a block.
type Allocator struct {
	next       int64
	blockBytes int64
}

// NewAllocator returns an allocator whose regions are aligned to
// blockBytes (the machine's cache block size).
func NewAllocator(blockBytes int) *Allocator {
	if blockBytes <= 0 {
		panic("tango: blockBytes must be positive")
	}
	return &Allocator{blockBytes: int64(blockBytes)}
}

// Region is a contiguous shared array.
type Region struct {
	base int64
	size int64
}

// Words allocates a region of n 8-byte words.
func (a *Allocator) Words(n int64) Region {
	if n <= 0 {
		panic("tango: region size must be positive")
	}
	size := n * WordBytes
	r := Region{base: a.next, size: size}
	a.next += size
	// Block-align the next region.
	if rem := a.next % a.blockBytes; rem != 0 {
		a.next += a.blockBytes - rem
	}
	return r
}

// TotalBytes returns the total shared bytes allocated (including alignment
// padding).
func (a *Allocator) TotalBytes() int64 { return a.next }

// Word returns the byte address of word i of the region.
func (r Region) Word(i int64) int64 {
	if i < 0 || i*WordBytes >= r.size {
		panic(fmt.Sprintf("tango: word %d out of region of %d words", i, r.size/WordBytes))
	}
	return r.base + i*WordBytes
}

// Base returns the region's starting byte address.
func (r Region) Base() int64 { return r.base }

// Size returns the region's size in bytes.
func (r Region) Size() int64 { return r.size }

// Words returns the number of words in the region.
func (r Region) Words() int64 { return r.size / WordBytes }

// Builder accumulates one processor's reference stream.
type Builder struct {
	refs []Ref
}

// Read appends a read of addr.
func (b *Builder) Read(addr int64) { b.refs = append(b.refs, MakeRef(Read, addr)) }

// Write appends a write of addr.
func (b *Builder) Write(addr int64) { b.refs = append(b.refs, MakeRef(Write, addr)) }

// Lock appends a lock acquire of addr.
func (b *Builder) Lock(addr int64) { b.refs = append(b.refs, MakeRef(Lock, addr)) }

// Unlock appends a lock release of addr.
func (b *Builder) Unlock(addr int64) { b.refs = append(b.refs, MakeRef(Unlock, addr)) }

// Barrier appends a barrier arrival at addr.
func (b *Builder) Barrier(addr int64) { b.refs = append(b.refs, MakeRef(Barrier, addr)) }

// ReadRange appends reads of words [lo, hi) of region r.
func (b *Builder) ReadRange(r Region, lo, hi int64) {
	for i := lo; i < hi; i++ {
		b.Read(r.Word(i))
	}
}

// WriteRange appends writes of words [lo, hi) of region r.
func (b *Builder) WriteRange(r Region, lo, hi int64) {
	for i := lo; i < hi; i++ {
		b.Write(r.Word(i))
	}
}

// Refs returns the accumulated stream.
func (b *Builder) Refs() []Ref { return b.refs }
