package check

import "math/bits"

// Block is the checker's shadow record of one block: the in-flight
// invalidation count, the open transaction, the replacement recalls still
// owed, and the processors whose L2 holds the block. Everything a per-block
// check reads sits in one record, so one lookup reaches it. Records are
// carved from chunks and never move or go away, so a *Block stays valid
// for the recorder's life.
type Block struct {
	id       int64
	tx       uint64   // most recently opened transaction on the block, 0 when none
	inflight int32    // directed invalidations dispatched but not yet applied
	recalls  int32    // replacement recalls queued or in flight
	hold     []uint64 // bit p set: processor p's L2 holds the block
}

// ID returns the block number.
func (s *Block) ID() int64 { return s.id }

// Inflight returns the invalidations dispatched for the block and not yet
// applied (0 for a nil record). While a block has any, its invariants are
// legitimately in transition and the per-block checks stand down.
func (s *Block) Inflight() int {
	if s == nil {
		return 0
	}
	return int(s.inflight)
}

// RecallsPending returns the replacement recalls queued or in flight for
// the block (0 for a nil record).
func (s *Block) RecallsPending() int {
	if s == nil {
		return 0
	}
	return int(s.recalls)
}

// Tx returns the most recently opened transaction on the block that is
// still open, or 0 (also for a nil record).
func (s *Block) Tx() uint64 {
	if s == nil {
		return 0
	}
	return s.tx
}

// Holds reports whether processor proc's L2 holds the block (false for a
// nil record).
func (s *Block) Holds(proc int) bool {
	return s != nil && s.hold[proc>>6]&(1<<(proc&63)) != 0
}

// Holders returns the block's holder set as bit words: bit p%64 of word
// p/64 is set when processor p's L2 holds the block (nil for a nil
// record). The slice is the record's own; callers only read it.
func (s *Block) Holders() []uint64 {
	if s == nil {
		return nil
	}
	return s.hold
}

// blockTable maps block numbers to their records: open addressing with
// linear probing over a power-of-two slot array kept at most half full,
// so a lookup costs a multiply, a shift and usually one probe. It is
// sized by the blocks a run touches, never by the address space.
type blockTable struct {
	slots []*Block
	shift uint8 // 64 - log2(len(slots))
	n     int   // records carved
	width int   // holder words per record

	chunk []Block  // uncarved records of the current chunk
	words []uint64 // their holder words, width per record
}

// Chunk sizes: the first chunk holds minChunk records and each later one
// as many as the table already has, up to maxChunk, so a small run
// allocates little and a large one a chunk per maxChunk blocks.
const (
	minChunk = 16
	maxChunk = 1024
)

// hash spreads block numbers over the slots (Fibonacci hashing: blocks a
// workload touches are mostly consecutive, and the multiply scatters them).
func (t *blockTable) hash(b int64) int {
	return int((uint64(b) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns block b's record, or nil.
func (t *blockTable) find(b int64) *Block {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.hash(b); ; i = (i + 1) & mask {
		if s := t.slots[i]; s == nil || s.id == b {
			return s
		}
	}
}

// get returns block b's record, creating it on first use.
func (t *blockTable) get(b int64) *Block {
	if s := t.find(b); s != nil {
		return s
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	if len(t.chunk) == 0 {
		size := min(max(t.n, minChunk), maxChunk)
		t.chunk = make([]Block, size)
		t.words = make([]uint64, size*t.width)
	}
	s := &t.chunk[0]
	s.id, s.hold = b, t.words[:t.width:t.width]
	t.chunk, t.words = t.chunk[1:], t.words[t.width:]
	t.n++
	t.place(s)
	return s
}

// place puts s in its first free slot.
func (t *blockTable) place(s *Block) {
	mask := len(t.slots) - 1
	i := t.hash(s.id)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the slot array (its first size is 2*minChunk) and
// re-places every record.
func (t *blockTable) grow() {
	old := t.slots
	size := max(2*len(old), 2*minChunk)
	t.slots = make([]*Block, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != nil {
			t.place(s)
		}
	}
}
