package machine

import (
	"dircoh/internal/core"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
)

// lockAcquire runs a Lock reference (after the release-consistency fence).
// Locks are queued in the directory (§7): the home records waiters using
// the machine's directory scheme, so coarse-vector lock grants wake whole
// regions that then re-contend.
func (m *Machine) lockAcquire(p *proc, addr int64, retry bool) {
	p.syncAddr = addr // the request stages' operand; a wake's retry arrives here too
	if retry {
		m.lockRetries.Inc()
		m.trace(obs.EvRetry, p.cl.id, addr, 0)
	}
	home := m.home(m.block(addr))
	if home == p.cl.id {
		granted, woken := p.cl.locks.Acquire(addr, p.cl.id, p.id)
		m.wakeNodes(addr, home, woken)
		if granted {
			m.complete(p, m.now()+m.t.Bus)
		}
		// Otherwise p blocks until granted or woken.
		return
	}
	// One lock transaction per remote acquisition round: it ends at the
	// grant (or the wake that triggers a retry, which opens a new round).
	tx := m.txStart(obs.TxLock, p.cl, addr)
	m.lockTxSet(p, tx)
	m.sendTx(protocol.LockReq, p.cl.id, home, tx, procEv(stLockReq, p))
}

// lockReqAtHome runs when p's LockReq arrives at the lock's home.
func (m *Machine) lockReqAtHome(p *proc) {
	hc := m.clusters[m.home(m.block(p.syncAddr))]
	m.txPhase(hc, m.lockTxOf(p), obs.PhReqTravel)
	m.at(hc, m.dirOp(hc, m.t.Dir), procEv(stLockAcquire, p))
}

// lockAcquireAtHome serves p's LockReq at the lock's home: a grant goes
// back to p, and otherwise p waits in the lock's waiter entry.
func (m *Machine) lockAcquireAtHome(p *proc) {
	addr := p.syncAddr
	home := m.home(m.block(addr))
	hc := m.clusters[home]
	granted, woken := hc.locks.Acquire(addr, p.cl.id, p.id)
	m.wakeNodes(addr, home, woken)
	if granted {
		tx := m.lockTxOf(p)
		m.txPhase(hc, tx, obs.PhDirWait)
		m.sendTx(protocol.LockGrant, home, p.cl.id, tx, procEv(stLockGrant, p))
	}
}

// lockGranted runs when a LockGrant arrives at p's cluster: p's lock round
// ends and p proceeds.
func (m *Machine) lockGranted(p *proc) {
	m.txPhase(p.cl, m.lockTxOf(p), obs.PhReplyTravel)
	m.lockTxEnd(p)
	m.complete(p, m.now()+m.t.Hit)
}

// lockRelease runs an Unlock reference. The releasing processor proceeds
// as soon as the release is issued (release consistency); the grant logic
// runs at the lock's home.
func (m *Machine) lockRelease(p *proc, addr int64) {
	home := m.home(m.block(addr))
	if home == p.cl.id {
		g := p.cl.locks.Release(addr)
		m.handleGrant(addr, home, g)
		m.complete(p, m.now()+m.t.Bus)
		return
	}
	// p moves on at once, so the release travels with its own record.
	i, r := m.recs.take(stUnlockReq)
	r.h, r.b = m.clusters[home], addr
	m.send(protocol.UnlockReq, p.cl.id, home, recEv(stUnlockReq, i))
	m.complete(p, m.now()+m.t.Hit)
}

// handleGrant delivers the outcome of a lock release: either a direct
// grant to a single waiter (precise waiter set) or wake messages to the
// popped region (coarse waiter set), whose waiters retry.
func (m *Machine) handleGrant(addr int64, home int, g protocol.Grant) {
	if g.Direct {
		q := m.procs[g.Proc]
		if g.Node == home {
			m.complete(q, m.now()+m.t.Hit)
			return
		}
		tx := m.lockTxOf(q)
		m.txPhase(m.clusters[home], tx, obs.PhDirWait)
		m.sendTx(protocol.LockGrant, home, g.Node, tx, procEv(stLockGrant, q))
		return
	}
	m.wakeNodes(addr, home, g.Wake)
}

// wakeNodes tells each node's waiters to retry acquisition. Nodes in a
// coarse region that never had waiters still receive (and ignore) the
// message — that traffic is the coarse vector's imprecision at work. It
// runs at the lock's home: the waiter list for a remote node is
// snapshotted here (the table lives at the home) and carried inside the
// wake message, so the remote cluster never touches the home's table. A
// waiter that registers while the wake is in flight misses this round and
// is woken at the next release.
func (m *Machine) wakeNodes(addr int64, home int, nodes []core.NodeID) {
	hc := m.clusters[home]
	for _, w := range nodes {
		ws := hc.locks.TakeWaiters(addr, w)
		if w == home {
			m.retryWaiters(addr, ws)
			continue
		}
		i, r := m.recs.take(stLockWake)
		r.b, r.ws = addr, ws
		m.send(protocol.LockWake, home, w, recEv(stLockWake, i))
	}
}

// retryWaiters re-runs lock acquisition for each woken processor. It runs
// at the waiters' own cluster.
func (m *Machine) retryWaiters(addr int64, procIDs []int) {
	for _, procID := range procIDs {
		q := m.procs[procID]
		// A wake ends the waiter's current lock round (the retry opens a
		// fresh transaction, linked by the lock.retry trace event).
		if tx := m.lockTxOf(q); tx != nil {
			m.txPhase(q.cl, tx, obs.PhDirWait)
			m.lockTxEnd(q)
		}
		m.lockAcquire(q, addr, true)
	}
}

// treeFanout is the combining-tree branching factor.
const treeFanout = 4

// treeParent returns c's parent cluster in the combining tree (root: 0).
func treeParent(c int) int { return (c - 1) / treeFanout }

// treeChildren calls fn for each child cluster of c.
func (m *Machine) treeChildren(c int, fn func(child int)) {
	for i := 1; i <= treeFanout; i++ {
		child := c*treeFanout + i
		if child < len(m.clusters) {
			fn(child)
		}
	}
}

// treeExpected returns the number of arrivals cluster c's tree node
// combines: its own processors plus one per child subtree.
func (m *Machine) treeExpected(c int) int {
	n := len(m.clusters[c].procs)
	m.treeChildren(c, func(int) { n++ })
	return n
}

// barrierNode returns cluster c's combining-tree node for barrier addr: the
// node of the episode in progress, else an idle node, else a new one.
func (c *clusterNode) barrierNode(addr int64) *treeNode {
	idle := -1
	for i := range c.tree {
		n := &c.tree[i]
		busy := n.arrived > 0 || len(n.waiting) > 0
		if busy && n.addr == addr {
			return n
		}
		if !busy && idle < 0 {
			idle = i
		}
	}
	if idle < 0 {
		idle = len(c.tree)
		c.tree = append(c.tree, treeNode{})
	}
	n := &c.tree[idle]
	n.addr = addr
	return n
}

// treeArrive records one arrival (a local processor or a completed child
// subtree) at cluster c's node of the combining tree for barrier addr.
func (m *Machine) treeArrive(c int, addr int64) {
	n := m.clusters[c].barrierNode(addr)
	n.arrived++
	if n.arrived < m.treeExpected(c) {
		return
	}
	n.arrived = 0
	if c == 0 {
		m.treeRelease(c, addr)
		return
	}
	parent := treeParent(c)
	i, r := m.recs.take(stTreeArrive)
	r.h, r.b = m.clusters[parent], addr
	m.send(protocol.BarrierArrive, c, parent, recEv(stTreeArrive, i))
}

// treeRelease fans the barrier release down cluster c's subtree.
func (m *Machine) treeRelease(c int, addr int64) {
	n := m.clusters[c].barrierNode(addr)
	for _, q := range n.waiting {
		m.complete(q, m.now()+m.t.Hit)
	}
	n.waiting = n.waiting[:0]
	m.treeChildren(c, func(child int) {
		i, r := m.recs.take(stTreeRelease)
		r.h, r.b = m.clusters[child], addr
		m.send(protocol.BarrierRelease, c, child, recEv(stTreeRelease, i))
	})
}

// barrierArrive runs a Barrier reference: the arrival is sent to the
// barrier's home; the last arrival releases every participant.
func (m *Machine) barrierArrive(p *proc, addr int64) {
	if m.cfg.Barrier == TreeBarrier {
		n := p.cl.barrierNode(addr)
		n.waiting = append(n.waiting, p)
		m.treeArrive(p.cl.id, addr)
		return
	}
	m.centralBarrierArrive(p, addr)
}

// centralBarrierArrive implements the default single-home barrier: p's
// arrival travels to the barrier's home (p waits, so the address stays in
// p.syncAddr).
func (m *Machine) centralBarrierArrive(p *proc, addr int64) {
	home := m.home(m.block(addr))
	if home == p.cl.id {
		m.centralBarrierAtHome(p)
		return
	}
	m.send(protocol.BarrierArrive, p.cl.id, home, procEv(stBarrierReq, p))
}

// centralBarrierAtHome records p's arrival at the barrier's home; the
// last arrival releases every participant.
func (m *Machine) centralBarrierAtHome(p *proc) {
	addr := p.syncAddr
	home := m.home(m.block(addr))
	for _, qid := range m.barriers.Arrive(addr, p.id) {
		q := m.procs[qid]
		if q.cl.id == home {
			m.complete(q, m.now()+m.t.Hit)
			continue
		}
		m.send(protocol.BarrierRelease, home, q.cl.id, procEv(stBarrierGo, q))
	}
}
