package protocol

import (
	"fmt"

	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// Gate serializes conflicting transactions on the same memory block at its
// home. A transaction that moves ownership (or a sparse-directory
// replacement with outstanding invalidations) locks the block; requests
// arriving meanwhile are queued as events and replayed, in order, when the
// gate unlocks. This models DASH's pending/RAC-based serialization without
// its NAK-and-retry traffic.
//
// The zero value is an empty gate table ready to use; its map is made by
// the first Lock, so a home that never serializes a block pays nothing.
type Gate struct {
	m    map[int64]*gateState
	free []*gateState // idle per-block states, reused by the next Lock

	// Waits, when non-nil, counts transactions queued behind a busy
	// block ("gate.waits" in the machine registry).
	Waits *obs.Counter

	// Anomaly, when non-nil, is called just before the gate panics on a
	// state-machine violation (locking a busy block, waiting on or
	// unlocking a non-busy one), giving the owner a chance to record a
	// structured check.Violation with transaction context before the
	// abort. The panic still happens: an inconsistent gate cannot
	// continue.
	Anomaly func(op string, block int64)
}

// gateState is one block's lock and queue; q[head:] are the waiters not
// yet replayed.
type gateState struct {
	busy bool
	q    []sim.Event
	head int
}

// Busy reports whether block is currently locked.
func (g *Gate) Busy(block int64) bool {
	st, ok := g.m[block]
	return ok && st.busy
}

// Lock marks block busy. It panics if already busy — callers must check
// Busy (or be running as the replayed head of the queue).
func (g *Gate) Lock(block int64) {
	st := g.m[block]
	if st == nil {
		if n := len(g.free); n > 0 {
			st = g.free[n-1]
			g.free = g.free[:n-1]
		} else {
			st = &gateState{}
		}
		if g.m == nil {
			g.m = make(map[int64]*gateState)
		}
		g.m[block] = st
	}
	if st.busy {
		g.anomaly("Gate.Lock on busy block", block)
	}
	st.busy = true
}

// Wait enqueues ev to be replayed when block unlocks.
func (g *Gate) Wait(block int64, ev sim.Event) {
	st := g.m[block]
	if st == nil || !st.busy {
		g.anomaly("Gate.Wait on non-busy block", block)
	}
	if g.Waits != nil {
		g.Waits.Inc()
	}
	st.q = append(st.q, ev)
}

// Unlock clears the busy state and hands the queued events to replay in
// order until one of them re-locks the block (or the queue drains). An
// idle block's state is kept for reuse.
func (g *Gate) Unlock(block int64, replay func(sim.Event)) {
	st := g.m[block]
	if st == nil || !st.busy {
		g.anomaly("Gate.Unlock on non-busy block", block)
	}
	st.busy = false
	for !st.busy && st.head < len(st.q) {
		ev := st.q[st.head]
		st.head++
		replay(ev)
	}
	if !st.busy && st.head == len(st.q) {
		delete(g.m, block)
		st.q, st.head = st.q[:0], 0
		g.free = append(g.free, st)
	}
}

// anomaly reports a gate state-machine violation and aborts.
func (g *Gate) anomaly(op string, block int64) {
	if g.Anomaly != nil {
		g.Anomaly(op, block)
	}
	panic(fmt.Sprintf("protocol: %s %d", op, block))
}

// Pending returns the number of queued transactions for block.
func (g *Gate) Pending(block int64) int {
	if st, ok := g.m[block]; ok {
		return len(st.q) - st.head
	}
	return 0
}

// BusyBlocks returns every currently locked block, sorted — diagnostic
// introspection for the liveness watchdog's dump.
func (g *Gate) BusyBlocks() []int64 {
	var out []int64
	for b, st := range g.m {
		if st.busy {
			out = append(out, b)
		}
	}
	sortInt64s(out)
	return out
}

// RAC is the Remote Access Cache bookkeeping used when a sparse directory
// replaces an entry (§7): it tracks, per block, how many invalidation
// acknowledgements are still outstanding before the replacement completes.
//
// The zero value tracks nothing and is ready to use; its map is made by the
// first Start.
type RAC struct {
	pending map[int64]int
	peak    int

	// Pend, when non-nil, mirrors the number of tracked blocks
	// ("rac.pending" in the machine registry); its high-water mark
	// equals Peak.
	Pend *obs.Gauge

	// Anomaly, when non-nil, is called just before the RAC panics on a
	// state-machine violation (starting a non-positive or duplicate
	// tracking, acknowledging an untracked block), mirroring Gate.Anomaly.
	Anomaly func(op string, block int64)
}

// Start begins tracking n outstanding acknowledgements for block. n must
// be positive and the block must not already be tracked.
func (r *RAC) Start(block int64, n int) {
	if n <= 0 {
		r.anomaly("RAC.Start needs a positive count for block", block)
	}
	if _, ok := r.pending[block]; ok {
		r.anomaly("RAC.Start on already-tracked block", block)
	}
	if r.pending == nil {
		r.pending = make(map[int64]int)
	}
	r.pending[block] = n
	if len(r.pending) > r.peak {
		r.peak = len(r.pending)
	}
	if r.Pend != nil {
		r.Pend.Set(int64(len(r.pending)))
	}
}

// Ack records one acknowledgement; it reports whether the block's
// replacement is now complete.
func (r *RAC) Ack(block int64) (done bool) {
	n, ok := r.pending[block]
	if !ok {
		r.anomaly("RAC.Ack on untracked block", block)
	}
	n--
	if n == 0 {
		delete(r.pending, block)
		if r.Pend != nil {
			r.Pend.Set(int64(len(r.pending)))
		}
		return true
	}
	r.pending[block] = n
	return false
}

// anomaly reports a RAC state-machine violation and aborts.
func (r *RAC) anomaly(op string, block int64) {
	if r.Anomaly != nil {
		r.Anomaly(op, block)
	}
	panic(fmt.Sprintf("protocol: %s %d", op, block))
}

// Tracking reports whether block has outstanding acknowledgements.
func (r *RAC) Tracking(block int64) bool {
	_, ok := r.pending[block]
	return ok
}

// Peak returns the maximum number of simultaneously tracked blocks.
func (r *RAC) Peak() int { return r.peak }

// Outstanding returns the acknowledgements still owed for block (0 when
// untracked).
func (r *RAC) Outstanding(block int64) int { return r.pending[block] }

// TrackedBlocks returns every block with outstanding acknowledgements,
// sorted — diagnostic introspection for the liveness watchdog's dump.
func (r *RAC) TrackedBlocks() []int64 {
	var out []int64
	for b := range r.pending {
		out = append(out, b)
	}
	sortInt64s(out)
	return out
}

// sortInt64s is an allocation-free insertion sort: the diagnostic lists
// it orders are tiny.
func sortInt64s(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
