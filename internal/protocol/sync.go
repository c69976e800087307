package protocol

import "dircoh/internal/core"

// LockTable implements DASH's queued directory locks (§7 of the paper).
// Waiters are recorded in a directory entry of the machine's active scheme,
// so the grant behaviour degrades exactly as the paper describes: a full
// bit vector grants a single node; a coarse vector in coarse mode wakes a
// whole region, whose nodes re-contend.
//
// The zero value with Scheme set is an empty table ready to use; its map
// is made by the first Acquire.
type LockTable struct {
	Scheme core.Scheme // the scheme waiter sets use
	locks  map[int64]*lockState
}

type lockState struct {
	held      bool
	holder    core.NodeID
	waiters   core.Entry
	waitProcs map[core.NodeID][]int // node -> procs blocked there
}

func (t *LockTable) state(addr int64) *lockState {
	st, ok := t.locks[addr]
	if !ok {
		st = &lockState{waitProcs: make(map[core.NodeID][]int)}
		if t.locks == nil {
			t.locks = make(map[int64]*lockState)
		}
		t.locks[addr] = st
	}
	return st
}

// Held reports whether the lock at addr is held.
func (t *LockTable) Held(addr int64) bool {
	st, ok := t.locks[addr]
	return ok && st.held
}

// Acquire attempts to take the lock for proc running on node. On success
// granted is true. On failure the proc is queued; any waiters evicted from
// the waiter entry (Dir_iNB overflow) are returned in woken and must be
// sent LockWake messages so they retry (otherwise they would be lost).
func (t *LockTable) Acquire(addr int64, node core.NodeID, proc int) (granted bool, woken []core.NodeID) {
	st := t.state(addr)
	if !st.held {
		st.held = true
		st.holder = node
		return true, nil
	}
	if st.waiters == nil {
		st.waiters = t.Scheme.NewEntry()
	}
	evicted := st.waiters.AddSharer(node)
	st.waitProcs[node] = append(st.waitProcs[node], proc)
	for _, ev := range evicted {
		if len(st.waitProcs[ev]) > 0 {
			woken = append(woken, ev)
		}
	}
	return false, woken
}

// Grant describes the outcome of a Release.
type Grant struct {
	// Direct, when true, means the lock was handed straight to Proc on
	// Node (precise waiter representation, §7's full-vector case).
	Direct bool
	Node   core.NodeID
	Proc   int
	// Wake lists nodes that must be told to retry (coarse region or
	// broadcast waiter representation). Nodes without actual waiters
	// still receive a message — that is the coarse vector's imprecision.
	Wake []core.NodeID
}

// Release releases the lock at addr. If waiters exist, the grant set is
// popped from the waiter entry and returned. TakeWaiters below converts
// woken nodes into runnable procs.
func (t *LockTable) Release(addr int64) Grant {
	st := t.state(addr)
	if !st.held {
		panic("protocol: Release of free lock")
	}
	st.held = false
	if st.waiters == nil || st.waiters.Empty() {
		return Grant{}
	}
	nodes := st.waiters.PopGrant()
	if len(nodes) == 1 && len(st.waitProcs[nodes[0]]) > 0 {
		// Precise single-node grant: hand the lock over directly.
		n := nodes[0]
		proc := st.waitProcs[n][0]
		st.waitProcs[n] = st.waitProcs[n][1:]
		if len(st.waitProcs[n]) > 0 {
			// Other procs on n still wait: keep the node queued.
			st.waiters.AddSharer(n)
		}
		st.held = true
		st.holder = n
		return Grant{Direct: true, Node: n, Proc: proc}
	}
	return Grant{Wake: nodes}
}

// TakeWaiters removes and returns the procs blocked on addr at node; they
// must retry acquisition. Called when a LockWake arrives at node.
func (t *LockTable) TakeWaiters(addr int64, node core.NodeID) []int {
	st := t.state(addr)
	procs := st.waitProcs[node]
	delete(st.waitProcs, node)
	return procs
}

// BarrierTable implements a centralized barrier: each participant sends an
// arrival to the barrier's home; the last arrival releases everyone. A
// finished episode's state is kept for the next one, so a run allocates
// only while the number of barriers in progress at once reaches a new peak.
type BarrierTable struct {
	expected int
	m        map[int64]*barrierState
	free     []*barrierState // finished episodes' states, reused first
}

type barrierState struct {
	procs []int
}

// NewBarrierTable returns a table expecting n participants per barrier.
func NewBarrierTable(n int) *BarrierTable {
	if n <= 0 {
		panic("protocol: barrier needs positive participant count")
	}
	return &BarrierTable{expected: n, m: make(map[int64]*barrierState)}
}

// Arrive records proc's arrival at the barrier at addr. When the last
// participant arrives, the full list of procs to release is returned and
// the barrier resets for reuse. The list is valid until the next Arrive.
func (t *BarrierTable) Arrive(addr int64, proc int) (release []int) {
	st, ok := t.m[addr]
	if !ok {
		if n := len(t.free); n > 0 {
			st = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			st = &barrierState{}
		}
		t.m[addr] = st
	}
	st.procs = append(st.procs, proc)
	if len(st.procs) == t.expected {
		release = st.procs
		st.procs = st.procs[:0]
		delete(t.m, addr)
		t.free = append(t.free, st)
	}
	return release
}

// Waiting returns the number of procs currently waiting at addr.
func (t *BarrierTable) Waiting(addr int64) int {
	if st, ok := t.m[addr]; ok {
		return len(st.procs)
	}
	return 0
}
