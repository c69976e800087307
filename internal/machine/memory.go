package machine

import (
	"dircoh/internal/bitset"
	"dircoh/internal/cache"
	"dircoh/internal/core"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
)

// access handles one read or write reference by p.
func (m *Machine) access(p *proc, write bool, addr int64) {
	m.accessBlock(p, write, m.block(addr))
}

// accessBlock runs one access by block number (used directly when MSHR
// waiters retry).
func (m *Machine) accessBlock(p *proc, write bool, b int64) {
	now := m.now()
	if !p.opPending {
		p.opPending = true
		p.opWrite = write
		p.opStart = now
	}
	switch p.h.Access(b, write, now) {
	case cache.Hit:
		m.complete(p, now+m.t.Hit)
	case cache.MissUpgrade:
		done := m.busOp(p.cl, m.t.Bus)
		m.at(p.cl, done, func() { m.busMiss(p, write, b, true) })
	default: // Miss
		done := m.busOp(p.cl, m.t.Bus)
		m.at(p.cl, done, func() { m.busMiss(p, write, b, false) })
	}
}

// fill installs block b in p's caches and handles any writeback the fill
// displaces.
func (m *Machine) fill(p *proc, b int64, st cache.State) {
	v := p.h.Fill(b, st, m.now())
	m.handleVictim(p, v)
}

// handleVictim sends a writeback for a dirty cache victim; shared victims
// are dropped silently (the directory keeps a stale, superset sharer bit,
// as DASH does).
func (m *Machine) handleVictim(p *proc, v cache.Victim) {
	if !v.Valid || !v.Dirty {
		return
	}
	vb := v.Block
	home := m.home(vb)
	if home == p.cl.id {
		return // local memory updated over the bus; no network traffic
	}
	hc := m.clusters[home]
	from := p.cl.id
	m.send(protocol.WritebackReq, from, home, func() {
		// A writeback superseded by a re-grant of ownership to the same
		// cluster (the home counted it when serving that request) is
		// stale: drop it.
		if n := hc.wbExpected[vb]; n > 0 {
			if n == 1 {
				delete(hc.wbExpected, vb)
			} else {
				hc.wbExpected[vb] = n - 1
			}
			return
		}
		// Guarded update: only clear ownership if the directory still
		// believes we own the block (a racing transaction may already
		// have moved ownership; its forwarded request found no copy) and
		// the cluster has not re-acquired the block dirty meanwhile
		// (ownership bouncing away and back via a third cluster arms no
		// wbExpected, so a fault-delayed writeback can arrive here stale).
		// A busy gate with the entry dirty-owned by the sender can only
		// mean an undelivered ownership grant back to the sender, which
		// this writeback predates — treat it as stale too.
		if e := hc.dir.Lookup(m.dirKey(vb), m.now()); e != nil && e.Dirty() && e.Owner() == from &&
			!m.clusterHoldsDirty(m.clusters[from], vb) && !hc.gate.Busy(vb) {
			e.Reset()
			hc.dir.Release(m.dirKey(vb))
		}
		m.checkBlock(vb)
	})
}

// busMiss runs after p's local bus transaction: snoop the cluster's other
// caches, then involve the home directory if the cluster cannot satisfy
// the access by itself.
func (m *Machine) busMiss(p *proc, write bool, b int64, upgrade bool) {
	c := p.cl
	now := m.now()
	home := m.home(b)
	if write {
		localDirty := false
		for _, q := range c.procs {
			if q == p {
				continue
			}
			if _, d := q.h.Invalidate(b); d {
				localDirty = true
			}
		}
		// A sibling's outstanding read must not install a copy after
		// this write: poison it (bus-order serialization).
		if _, ok := c.pendingReads[b]; ok {
			c.poisonedReads[b] = true
		}
		if localDirty {
			// Cache-to-cache ownership transfer within the cluster; the
			// directory state (dirty at this cluster, or home-local) is
			// unchanged.
			m.fill(p, b, cache.Dirty)
			m.complete(p, now+m.t.Fill)
			return
		}
		if home == c.id {
			m.homeLocalWrite(p, b)
			return
		}
		if c.pendingWrite[b] {
			// Another local processor's ownership request is in flight;
			// retry over the bus when it completes.
			c.writeWaiters[b] = append(c.writeWaiters[b], mshrWaiter{p: p, write: true})
			m.mergedReads.Inc()
			return
		}
		c.pendingWrite[b] = true
		kind := protocol.WriteReq
		class := obs.TxWrite
		if upgrade {
			kind = protocol.UpgradeReq
			class = obs.TxUpgrade
		}
		tx := m.txStart(class, c, b)
		m.trace(obs.EvReqIssue, c.id, b, int64(kind))
		p.grantOwed = true
		m.sendTx(kind, c.id, home, tx, func() { m.remoteWriteAtHome(p, b, upgrade, tx) })
		return
	}
	// Read. An ownership request in flight from this cluster wins the
	// MSHR check before any bus supply: the sibling's copy is about to
	// be superseded, so park and retry once the write lands.
	if c.pendingWrite[b] {
		c.writeWaiters[b] = append(c.writeWaiters[b], mshrWaiter{p: p})
		m.mergedReads.Inc()
		return
	}
	// Another local cache can supply the data directly.
	for _, q := range c.procs {
		if q == p {
			continue
		}
		switch q.h.State(b) {
		case cache.Dirty:
			q.h.Downgrade(b)
			m.fill(p, b, cache.Shared)
			if home != c.id {
				m.sendSharingWB(c.id, home, b)
			}
			m.complete(p, now+m.t.Fill)
			return
		case cache.Shared:
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		}
	}
	if home == c.id {
		m.homeLocalRead(p, b)
		return
	}
	// RAC request merging: if another local processor already has a read
	// outstanding for this block, ride its reply instead of sending a
	// second request.
	if followers, ok := c.pendingReads[b]; ok {
		c.pendingReads[b] = append(followers, p)
		m.mergedReads.Inc()
		return
	}
	c.pendingReads[b] = nil
	tx := m.txStart(obs.TxRead, c, b)
	m.trace(obs.EvReqIssue, c.id, b, int64(protocol.ReadReq))
	m.sendTx(protocol.ReadReq, c.id, home, tx, func() { m.remoteReadAtHome(p, b, tx) })
}

// remoteReadDone fills p and every merged follower, completing them all.
// A poisoned read delivers its data without caching it.
func (m *Machine) remoteReadDone(p *proc, b int64, tx *txState) {
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.txEnd(tx)
	now := m.now()
	poisoned := p.cl.poisonedReads[b]
	procs := append([]*proc{p}, p.cl.pendingReads[b]...)
	delete(p.cl.pendingReads, b)
	delete(p.cl.poisonedReads, b)
	for _, q := range procs {
		if !poisoned {
			m.fill(q, b, cache.Shared)
		}
		m.complete(q, now+m.t.Fill)
	}
	m.checkBlock(b)
}

// invalidateCluster removes block b from every cache of cluster c and, if
// c has a read outstanding for b, poisons it so the in-flight reply is
// consumed without caching (the invalidation logically follows the read).
// A directed invalidation that finds neither a cached copy nor a pending
// read was extraneous — sent only because the directory's sharer
// information is imprecise (coarse regions, broadcasts, stale bits).
// directed is false for the home-bus snoop, which is issued
// unconditionally and so says nothing about directory precision.
func (m *Machine) invalidateCluster(c *clusterNode, b int64, directed bool) {
	hit := false
	for _, q := range c.procs {
		if present, _ := q.h.Invalidate(b); present {
			hit = true
		}
	}
	if _, ok := c.pendingReads[b]; ok {
		c.poisonedReads[b] = true
		hit = true
	}
	if directed && !hit {
		m.extraInval.Inc()
	}
}

// sendSharingWB tells the home that cluster `from` downgraded its dirty
// copy and memory is current again.
func (m *Machine) sendSharingWB(from, home int, b int64) {
	hc := m.clusters[home]
	m.send(protocol.SharingWB, from, home, func() {
		// Stale with respect to a re-granted ownership (see wbExpected)?
		if n := hc.wbExpected[b]; n > 0 {
			if n == 1 {
				delete(hc.wbExpected, b)
			} else {
				hc.wbExpected[b] = n - 1
			}
			return
		}
		// Guarded downgrade: ownership may have moved away and back since
		// this writeback was sent (delay or retry reordering via a third
		// cluster arms no wbExpected). If the cluster holds the block
		// dirty again — or a grant back to it is still in flight (gate
		// busy with the entry dirty-owned by the sender) — the downgrade
		// this message reports is ancient.
		if e := hc.dir.Lookup(m.dirKey(b), m.now()); e != nil && e.Dirty() && e.Owner() == from &&
			!m.clusterHoldsDirty(m.clusters[from], b) && !hc.gate.Busy(b) {
			e.ClearDirty()
		}
		m.checkBlock(b)
	})
}

// homeLocalRead serves a read whose home is the requester's own cluster.
func (m *Machine) homeLocalRead(p *proc, b int64) {
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, func() { m.homeLocalRead(p, b) })
		return
	}
	now := m.now()
	// Re-snoop: a sibling may have obtained a copy while this request
	// waited on the gate; the bus supplies it directly.
	for _, q := range h.procs {
		if q == p {
			continue
		}
		switch q.h.State(b) {
		case cache.Dirty:
			q.h.Downgrade(b)
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		case cache.Shared:
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		}
	}
	e := h.dir.Lookup(m.dirKey(b), now)
	if e == nil || !e.Dirty() {
		m.fill(p, b, cache.Shared)
		m.complete(p, now+m.t.Fill)
		return
	}
	// Dirty in a remote cluster: forward there; the reply to the home
	// doubles as the sharing writeback.
	owner := e.Owner()
	e.ClearDirty()
	h.gate.Lock(b)
	m.send(protocol.FwdReadReq, h.id, owner, func() {
		oc := m.clusters[owner]
		done := m.busOp(oc, m.t.Fwd)
		m.at(oc, done, func() {
			for _, q := range oc.procs {
				q.h.Downgrade(b)
			}
			m.send(protocol.DataReply, owner, h.id, func() {
				m.fill(p, b, cache.Shared)
				m.complete(p, m.now()+m.t.Fill)
				m.reopen(h, b)
			})
		})
	})
}

// homeLocalWrite serves a write whose home is the requester's own cluster.
// The local bus snoop has already invalidated other local copies.
func (m *Machine) homeLocalWrite(p *proc, b int64) {
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, func() { m.homeLocalWrite(p, b) })
		return
	}
	now := m.now()
	// Re-snoop: siblings may have picked up copies while this request
	// waited on the gate; a sibling's dirty copy transfers ownership
	// over the bus, shared copies are invalidated.
	localDirty := false
	for _, q := range h.procs {
		if q == p {
			continue
		}
		if _, d := q.h.Invalidate(b); d {
			localDirty = true
		}
	}
	if localDirty {
		m.fill(p, b, cache.Dirty)
		m.complete(p, now+m.t.Fill)
		return
	}
	e := h.dir.Lookup(m.dirKey(b), now)
	if e == nil || e.Empty() {
		if e != nil {
			h.dir.Release(m.dirKey(b))
		}
		m.invalHist.Add(0)
		m.invalFan.Observe(0)
		m.fill(p, b, cache.Dirty)
		m.complete(p, now+m.t.Fill)
		return
	}
	if e.Dirty() {
		// Recall from the remote owner; afterwards the block is dirty in
		// the home cluster and needs no directory entry.
		owner := e.Owner()
		e.Reset()
		h.dir.Release(m.dirKey(b))
		h.gate.Lock(b)
		m.send(protocol.FwdWriteReq, h.id, owner, func() {
			oc := m.clusters[owner]
			done := m.busOp(oc, m.t.InvalBus)
			m.at(oc, done, func() {
				m.applyInval(oc, b, false)
				m.send(protocol.OwnershipReply, owner, h.id, func() {
					m.fill(p, b, cache.Dirty)
					m.complete(p, m.now()+m.t.Fill)
					m.reopen(h, b)
				})
			})
		})
		return
	}
	// Remote sharers: invalidate them; ownership is granted immediately
	// (acknowledgements drain asynchronously under release consistency).
	targets := e.Sharers()
	targets.Remove(h.id)
	n := targets.Count()
	m.invalHist.Add(n)
	m.invalFan.Observe(uint64(n))
	if n > 0 && !e.Precise() {
		m.trace(obs.EvOverflow, h.id, b, int64(n))
	}
	e.Reset()
	h.dir.Release(m.dirKey(b))
	p.pendingAcks += n
	if m.chk != nil {
		m.chk.AckExpect(p.id, n)
	}
	m.fill(p, b, cache.Dirty)
	m.complete(p, now+m.t.Fill)
	m.sendInvals(h, b, targets, p, nil)
	m.checkBlock(b)
}

// sendInvals sends invalidations for block b to every cluster in targets;
// each target acknowledges to ackTo's cluster and the ack is credited to
// ackTo. The requester's own cluster is never a target (callers exclude
// it), so acknowledgements always travel the network, as in DASH.
func (m *Machine) sendInvals(h *clusterNode, b int64, targets bitset.Set, ackTo *proc, tx *txState) {
	n := targets.Count()
	if n > 0 {
		m.trace(obs.EvInvalFanout, h.id, b, int64(n))
	}
	m.txFanout(tx, n, false)
	if m.chk != nil {
		m.chk.InvalSent(b, n)
	}
	// The directory injects invalidations at a finite rate; a broadcast
	// keeps the controller busy and delays requests queued behind it.
	m.occupyDir(h, m.t.InvalSend*sim.Time(n))
	// One ack handler serves every target: the pre-bound one when spans are
	// off, so the hot path allocates no closure per invalidation.
	ack := ackTo.ackFn
	if tx != nil && n > 0 {
		ack = func() {
			m.ackArrived(ackTo)
			m.txAck(ackTo.cl, tx)
		}
	}
	targets.ForEach(func(t int) {
		tc := m.clusters[t]
		m.sendTx(protocol.Inval, h.id, t, tx, func() {
			done := m.busOp(tc, m.t.InvalBus)
			m.at(tc, done, func() {
				m.applyInval(tc, b, false)
				m.invalApplied(b)
				m.sendTx(protocol.AckMsg, t, ackTo.cl.id, tx, ack)
			})
		})
	})
}

// remoteReadAtHome runs when a ReadReq arrives at the home cluster.
func (m *Machine) remoteReadAtHome(p *proc, b int64, tx *txState) {
	h := m.clusters[m.home(b)]
	m.txPhase(h, tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, b, 0)
	done := m.dirOp(h, m.t.Dir)
	m.at(h, done, func() { m.serveRemoteRead(p, b, h, tx) })
}

func (m *Machine) serveRemoteRead(p *proc, b int64, h *clusterNode, tx *txState) {
	if h.gate.Busy(b) {
		h.gate.Wait(b, func() { m.serveRemoteRead(p, b, h, tx) })
		return
	}
	now := m.now()
	rc := p.cl.id
	e := h.dir.Lookup(m.dirKey(b), now)
	if e != nil && e.Dirty() && e.Owner() != rc {
		// Three-cluster read: forward to the owner, which replies to the
		// requester and sends a sharing writeback home.
		owner := e.Owner()
		e.ClearDirty()
		m.handleNBEvictions(h, b, e.AddSharer(rc), tx)
		m.drainDirVictims(h)
		h.gate.Lock(b)
		m.txPhase(h, tx, obs.PhDirWait)
		m.sendTx(protocol.FwdReadReq, h.id, owner, tx, func() {
			oc := m.clusters[owner]
			done := m.busOp(oc, m.t.Fwd)
			m.at(oc, done, func() {
				for _, q := range oc.procs {
					q.h.Downgrade(b)
				}
				m.txPhase(oc, tx, obs.PhFanout)
				m.sendReply(protocol.DataReply, oc, p.cl, h, b, tx, func() {
					m.remoteReadDone(p, b, tx)
				})
				m.sendTx(protocol.SharingWB, owner, h.id, tx, func() {})
			})
		})
		return
	}
	// Clean at home (or owned by the requester after a writeback race).
	e2, victim := h.dir.Allocate(m.dirKey(b), now)
	if victim != nil {
		m.replaceEntry(h, victim)
	}
	if e2.Dirty() && e2.Owner() == rc {
		if m.clusterHoldsDirty(p.cl, b) {
			// Stale request: fault-injected delay (or a retry) let the
			// cluster's own later write overtake this read, and ownership
			// has already been granted back. A real home would NAK;
			// here the entry is left untouched and the reply merely
			// completes the read, which the overtaking write poisoned.
			p.cl.poisonedReads[b] = true
			m.txPhase(h, tx, obs.PhDirWait)
			m.sendTx(protocol.DataReply, h.id, rc, tx, func() {
				m.remoteReadDone(p, b, tx)
			})
			return
		}
		// The owner itself is asking: its copy was evicted, so a
		// writeback is in flight and now stale.
		e2.ClearDirty()
		h.wbExpected[b]++
	}
	// Home-bus snoop: a home cache may hold the block dirty with no
	// directory entry; downgrade it so memory supplies current data.
	for _, q := range h.procs {
		q.h.Downgrade(b)
	}
	m.handleNBEvictions(h, b, e2.AddSharer(rc), tx)
	m.drainDirVictims(h)
	m.txPhase(h, tx, obs.PhDirWait)
	m.sendTx(protocol.DataReply, h.id, rc, tx, func() {
		m.remoteReadDone(p, b, tx)
	})
}

// remoteWriteAtHome runs when a WriteReq/UpgradeReq arrives at the home.
func (m *Machine) remoteWriteAtHome(p *proc, b int64, upgrade bool, tx *txState) {
	h := m.clusters[m.home(b)]
	m.txPhase(h, tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, b, 1)
	done := m.dirOp(h, m.t.Dir)
	m.at(h, done, func() { m.serveRemoteWrite(p, b, h, upgrade, tx) })
}

func (m *Machine) serveRemoteWrite(p *proc, b int64, h *clusterNode, upgrade bool, tx *txState) {
	if h.gate.Busy(b) {
		h.gate.Wait(b, func() { m.serveRemoteWrite(p, b, h, upgrade, tx) })
		return
	}
	now := m.now()
	rc := p.cl.id
	e, victim := h.dir.Allocate(m.dirKey(b), now)
	if victim != nil {
		m.replaceEntry(h, victim)
	}
	if e.Dirty() && e.Owner() != rc {
		// Ownership transfer between two remote clusters.
		owner := e.Owner()
		e.SetDirty(rc)
		h.gate.Lock(b)
		m.txPhase(h, tx, obs.PhDirWait)
		m.sendTx(protocol.FwdWriteReq, h.id, owner, tx, func() {
			oc := m.clusters[owner]
			done := m.busOp(oc, m.t.InvalBus)
			m.at(oc, done, func() {
				m.applyInval(oc, b, false)
				m.txPhase(oc, tx, obs.PhFanout)
				m.sendReply(protocol.OwnershipReply, oc, p.cl, h, b, tx, func() {
					m.remoteWriteDone(p, b, upgrade, 0, tx)
				})
			})
		})
		return
	}
	if e.Dirty() && e.Owner() == rc && !m.clusterHoldsDirty(p.cl, b) {
		// Re-granting to the recorded owner: its in-flight writeback is
		// stale (see wbExpected). If the cluster still holds the block
		// dirty the request itself is the stale artifact (delay or retry
		// reordering) and no writeback is coming — don't expect one.
		h.wbExpected[b]++
	}
	// Clean (or requester-owned): invalidate the sharers. The ownership
	// reply carries the invalidation count; acknowledgements go straight
	// to the requester.
	targets := e.Sharers()
	targets.Remove(rc)
	targets.Remove(h.id)
	// Home-bus snoop invalidates home-cluster copies without messages.
	m.invalidateCluster(h, b, false)
	n := targets.Count()
	m.invalHist.Add(n)
	m.invalFan.Observe(uint64(n))
	if n > 0 && !e.Precise() {
		m.trace(obs.EvOverflow, h.id, b, int64(n))
	}
	e.SetDirty(rc)
	m.drainDirVictims(h)
	h.gate.Lock(b)
	m.txPhase(h, tx, obs.PhDirWait)
	// The ownership reply carries the requester's ack count; the acks go
	// straight to the requester and may overtake it (see ackArrived).
	m.sendReply(protocol.OwnershipReply, h, p.cl, h, b, tx, func() {
		m.remoteWriteDone(p, b, upgrade, n, tx)
	})
	m.sendInvals(h, b, targets, p, tx)
}

// clusterHoldsDirty reports whether any cache in c currently holds b
// dirty. The home uses it to tell a genuine eviction race (owner's copy
// gone, writeback in flight) from a stale request that message delay or
// retransmission let the cluster's own later ownership acquisition
// overtake — the case a real protocol rejects with a NAK. Impossible
// without fault injection: the fault-free mesh never reorders requests
// on a pair, so the fault-free answer is constant false.
func (m *Machine) clusterHoldsDirty(c *clusterNode, b int64) bool {
	if !m.faultsOn {
		return false
	}
	for _, q := range c.procs {
		if q.h.State(b) == cache.Dirty {
			return true
		}
	}
	return false
}

// sendReply sends a reply that completes an ownership-moving transaction
// from cluster from to the requester rc, and reopens the home h's gate for
// b once the reply has landed. With the delivery time known at send time
// the gate reopens from an event keyed right after the reply, so no
// request queued behind the gate can observe the block before the
// requester holds it, and the home never waits on a requester-side
// closure. Under the fault model a delayed or retried reply's arrival is
// unknowable when it is sent, so the reply itself reopens the gate.
func (m *Machine) sendReply(kind protocol.MsgKind, from, rc, h *clusterNode, b int64, tx *txState, arrive func()) {
	if m.faultsOn {
		m.sendTx(kind, from.id, rc.id, tx, func() {
			arrive()
			m.reopen(h, b)
		})
		return
	}
	t := m.sendTx(kind, from.id, rc.id, tx, arrive)
	m.at(from, t, func() { m.reopen(h, b) })
}

// reopen unlocks home h's gate for b, replaying the requests queued behind
// it, and re-checks the settled block.
func (m *Machine) reopen(h *clusterNode, b int64) {
	h.gate.Unlock(b)
	m.checkBlock(b)
}

// fillExclusive installs an exclusive copy after an ownership reply.
func (m *Machine) fillExclusive(p *proc, b int64, upgrade bool) {
	if upgrade && p.h.State(b) != cache.Invalid {
		p.h.Upgrade(b, m.now())
		return
	}
	m.fill(p, b, cache.Dirty)
}

// remoteWriteDone completes p's outstanding write when its ownership reply
// lands, crediting the n acknowledgements the reply carries, and retries
// any local accesses that were parked behind it (they now hit the fresh
// dirty copy over the bus).
func (m *Machine) remoteWriteDone(p *proc, b int64, upgrade bool, n int, tx *txState) {
	m.grantAcks(p, n)
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.txEnd(tx)
	m.fillExclusive(p, b, upgrade)
	c := p.cl
	m.complete(p, m.now()+m.t.Fill)
	delete(c.pendingWrite, b)
	waiters := c.writeWaiters[b]
	delete(c.writeWaiters, b)
	for _, w := range waiters {
		w := w
		m.after(c, m.t.Fill, func() { m.accessBlock(w.p, w.write, b) })
	}
}

// handleNBEvictions invalidates sharers dropped by a Dir_iNB pointer
// overflow. These are the paper's read-caused invalidation events (Fig 4).
func (m *Machine) handleNBEvictions(h *clusterNode, b int64, ev []core.NodeID, tx *txState) {
	if len(ev) == 0 {
		return
	}
	m.invalHist.Add(len(ev))
	m.invalFan.Observe(uint64(len(ev)))
	m.trace(obs.EvInvalFanout, h.id, b, int64(len(ev)))
	sent := 0
	for _, v := range ev {
		if v != h.id {
			sent++
		}
	}
	m.txFanout(tx, sent, false)
	if m.chk != nil {
		m.chk.InvalSent(b, sent)
	}
	m.occupyDir(h, m.t.InvalSend*sim.Time(len(ev)))
	for _, v := range ev {
		if v == h.id {
			continue
		}
		vc := m.clusters[v]
		v := v
		m.sendTx(protocol.Inval, h.id, v, tx, func() {
			done := m.busOp(vc, m.t.InvalBus)
			m.at(vc, done, func() {
				m.applyInval(vc, b, false)
				m.invalApplied(b)
				m.sendTx(protocol.AckMsg, v, h.id, tx, func() { m.txAck(h, tx) })
			})
		})
	}
}

// drainDirVictims collects wide-entry victims an Overflow directory
// produced during entry migrations and runs the replacement-invalidation
// flow for each.
func (m *Machine) drainDirVictims(h *clusterNode) {
	src, ok := h.dir.(interface{ TakeVictims() []*sparse.Victim })
	if !ok {
		return
	}
	for _, v := range src.TakeVictims() {
		m.replaceEntry(h, v)
	}
}

// replaceEntry handles a sparse-directory replacement: the victim block's
// cached copies are invalidated, tracked by the home's RAC; requests for
// the victim block are gated until all acknowledgements arrive (§7).
func (m *Machine) replaceEntry(h *clusterNode, victim *sparse.Victim) {
	// The directory stores home-local keys; recover the global block.
	vb, ve := m.keyBlock(victim.Block, h.id), victim.Entry
	m.recallPending(vb, +1)
	act := func() { m.sendReplacementInvals(h, vb, ve) }
	if h.gate.Busy(vb) {
		// The victim block has a transaction in flight; its state keeps
		// evolving in ve, so run the replacement when the gate clears.
		h.gate.Wait(vb, act)
		return
	}
	act()
}

func (m *Machine) sendReplacementInvals(h *clusterNode, vb int64, ve core.Entry) {
	if ve.Empty() {
		m.recallPending(vb, -1)
		return
	}
	if ve.Dirty() {
		owner := ve.Owner()
		m.replHist.Add(1)
		m.replFan.Observe(1)
		m.trace(obs.EvDirEvict, h.id, vb, 1)
		tx := m.txStart(obs.TxEvict, h, vb)
		m.txFanout(tx, 1, true)
		m.occupyDir(h, m.t.InvalSend)
		h.gate.Lock(vb)
		h.rac.Start(vb, 1)
		oc := m.clusters[owner]
		m.sendTx(protocol.Flush, h.id, owner, tx, func() {
			done := m.busOp(oc, m.t.InvalBus)
			m.at(oc, done, func() {
				m.applyInval(oc, vb, true)
				m.sendTx(protocol.AckMsg, owner, h.id, tx, func() {
					m.racAck(h, vb)
					m.txAck(h, tx)
				})
			})
		})
		return
	}
	targets := ve.Sharers()
	targets.Remove(h.id)
	n := targets.Count()
	if n == 0 {
		m.recallPending(vb, -1)
		return
	}
	m.replHist.Add(n)
	m.replFan.Observe(uint64(n))
	m.trace(obs.EvDirEvict, h.id, vb, int64(n))
	tx := m.txStart(obs.TxEvict, h, vb)
	m.txFanout(tx, n, true)
	m.occupyDir(h, m.t.InvalSend*sim.Time(n))
	h.gate.Lock(vb)
	h.rac.Start(vb, n)
	targets.ForEach(func(t int) {
		tc := m.clusters[t]
		m.sendTx(protocol.Inval, h.id, t, tx, func() {
			done := m.busOp(tc, m.t.InvalBus)
			m.at(tc, done, func() {
				m.applyInval(tc, vb, true)
				m.sendTx(protocol.AckMsg, t, h.id, tx, func() {
					m.racAck(h, vb)
					m.txAck(h, tx)
				})
			})
		})
	})
}

func (m *Machine) racAck(h *clusterNode, vb int64) {
	if h.rac.Ack(vb) {
		m.recallPending(vb, -1)
		m.checkRecallClean(h, vb)
		m.reopen(h, vb)
	}
}

// recallPending adjusts the per-block count of replacement recalls queued
// or in flight. Checker bookkeeping only: it feeds checkRecallClean's
// exemption for blocks that owe a second recall (see recallsPending).
func (m *Machine) recallPending(vb int64, d int) {
	if m.chk == nil {
		return
	}
	m.recallsPending[vb] += d
	if m.recallsPending[vb] <= 0 {
		delete(m.recallsPending, vb)
	}
}
