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
// waiters retry). The block and upgrade flag stay in p, with opWrite, for
// the miss chain's stages.
func (m *Machine) accessBlock(p *proc, write bool, b int64) {
	now := m.now()
	if !p.opPending {
		p.opPending = true
		p.opWrite = write
		p.opStart = now
	}
	p.block = b
	switch p.h.Access(b, write, now) {
	case cache.Hit:
		m.complete(p, now+m.t.Hit)
	case cache.MissUpgrade:
		p.upgrade = true
		m.at(p.cl, m.busOp(p.cl, m.t.Bus), procEv(stBusMiss, p))
	default: // Miss
		p.upgrade = false
		m.at(p.cl, m.busOp(p.cl, m.t.Bus), procEv(stBusMiss, p))
	}
}

// fill installs block b in p's caches and handles any writeback the fill
// displaces. With checking on, the block's holder set gains p and the
// victim's loses it: fills and the three Invalidate calls below
// (busMiss, invalidateCluster, homeLocalWrite) are the only places an
// L2's contents change, and each keeps the holder sets in step.
func (m *Machine) fill(p *proc, b int64, st cache.State) {
	v := p.h.Fill(b, st, m.now())
	if m.chk != nil {
		m.chk.Cached(p.id, b)
		if v.Valid {
			m.chk.Uncached(p.id, v.Block)
		}
	}
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
	i, r := m.recs.take(stWriteback)
	r.h, r.c, r.b = m.clusters[home], p.cl, vb
	m.send(protocol.WritebackReq, p.cl.id, home, recEv(stWriteback, i))
}

// writebackAtHome applies a dirty victim's writeback from cluster r.c at
// the home.
func (m *Machine) writebackAtHome(r *rec) {
	hc, vb, from := r.h, r.b, r.c.id
	// A writeback superseded by a re-grant of ownership to the same
	// cluster (the home counted it when serving that request) is stale:
	// drop it.
	if m.staleWriteback(hc, vb) {
		return
	}
	// Guarded update: only clear ownership if the directory still believes
	// we own the block (a racing transaction may already have moved
	// ownership; its forwarded request found no copy) and the cluster has
	// not re-acquired the block dirty meanwhile (ownership bouncing away
	// and back via a third cluster arms no wbExpected, so a fault-delayed
	// writeback can arrive here stale). A busy gate with the entry
	// dirty-owned by the sender can only mean an undelivered ownership
	// grant back to the sender, which this writeback predates — treat it
	// as stale too.
	if e := hc.dir.Lookup(m.dirKey(vb), m.now()); e != nil && e.Dirty() && e.Owner() == from &&
		!m.clusterHoldsDirty(r.c, vb) && !hc.gate.Busy(vb) {
		e.Reset()
		hc.dir.Release(m.dirKey(vb))
	}
	m.checkBlock(vb)
}

// expectWriteback records one stale writeback for block b in flight to the
// home hc (see wbExpected).
func (hc *clusterNode) expectWriteback(b int64) {
	if hc.wbExpected == nil {
		hc.wbExpected = make(map[int64]int)
	}
	hc.wbExpected[b]++
}

// staleWriteback consumes one expected stale writeback for block b at the
// home hc (see wbExpected) and reports whether there was one.
func (m *Machine) staleWriteback(hc *clusterNode, b int64) bool {
	n := hc.wbExpected[b]
	if n == 0 {
		return false
	}
	if n == 1 {
		delete(hc.wbExpected, b)
	} else {
		hc.wbExpected[b] = n - 1
	}
	return true
}

// leader returns c's processor that leads a remote miss of kind k for block
// b, or nil.
func (c *clusterNode) leader(k missKind, b int64) *proc {
	for _, q := range c.procs {
		if q.miss == k && q.block == b {
			return q
		}
	}
	return nil
}

// merge parks q's access behind l's miss, after the accesses merged before
// it.
func (l *proc) merge(q *proc) {
	tail := &l.merged
	for *tail != nil {
		tail = &(*tail).nextMerged
	}
	*tail = q
}

// popMerged detaches and returns the first access merged onto p's miss,
// or nil.
func (p *proc) popMerged() *proc {
	q := p.merged
	if q != nil {
		p.merged, q.nextMerged = q.nextMerged, nil
	}
	return q
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
			present, d := q.h.Invalidate(b)
			if present && m.chk != nil {
				m.chk.Uncached(q.id, b)
			}
			if d {
				localDirty = true
			}
		}
		// A sibling's outstanding read must not install a copy after
		// this write: poison it (bus-order serialization).
		if r := c.leader(readMiss, b); r != nil {
			r.poisoned = true
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
		if w := c.leader(writeMiss, b); w != nil {
			// Another local processor's ownership request is in flight;
			// retry over the bus when it completes.
			w.merge(p)
			m.mergedReads.Inc()
			return
		}
		p.miss = writeMiss
		kind := protocol.WriteReq
		class := obs.TxWrite
		if upgrade {
			kind = protocol.UpgradeReq
			class = obs.TxUpgrade
		}
		p.tx = m.txStart(class, c, b)
		m.trace(obs.EvReqIssue, c.id, b, int64(kind))
		p.grantOwed = true
		m.sendTx(kind, c.id, home, p.tx, procEv(stWriteReq, p))
		return
	}
	// Read. An ownership request in flight from this cluster wins the
	// MSHR check before any bus supply: the sibling's copy is about to
	// be superseded, so park and retry once the write lands.
	if w := c.leader(writeMiss, b); w != nil {
		w.merge(p)
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
	if r := c.leader(readMiss, b); r != nil {
		r.merge(p)
		m.mergedReads.Inc()
		return
	}
	p.miss = readMiss
	p.tx = m.txStart(obs.TxRead, c, b)
	m.trace(obs.EvReqIssue, c.id, b, int64(protocol.ReadReq))
	m.sendTx(protocol.ReadReq, c.id, home, p.tx, procEv(stReadReq, p))
}

// remoteReadDone fills p and every merged follower, completing them all.
// A poisoned read delivers its data without caching it.
func (m *Machine) remoteReadDone(p *proc, b int64, tx *txState) {
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.txEnd(tx)
	poisoned := p.poisoned
	p.miss, p.poisoned = noMiss, false
	m.readArrived(p, b, poisoned)
	for q := p.popMerged(); q != nil; q = p.popMerged() {
		m.readArrived(q, b, poisoned)
	}
	m.checkBlock(b)
}

// readArrived completes q's read of block b, caching the data unless the
// read was poisoned.
func (m *Machine) readArrived(q *proc, b int64, poisoned bool) {
	if !poisoned {
		m.fill(q, b, cache.Shared)
	}
	m.complete(q, m.now()+m.t.Fill)
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
			if m.chk != nil {
				m.chk.Uncached(q.id, b)
			}
		}
	}
	if r := c.leader(readMiss, b); r != nil {
		r.poisoned = true
		hit = true
	}
	if directed && !hit {
		m.extraInval.Inc()
	}
}

// sendSharingWB tells the home that cluster `from` downgraded its dirty
// copy and memory is current again.
func (m *Machine) sendSharingWB(from, home int, b int64) {
	i, r := m.recs.take(stSharingWB)
	r.h, r.c, r.b = m.clusters[home], m.clusters[from], b
	m.send(protocol.SharingWB, from, home, recEv(stSharingWB, i))
}

// sharingWBAtHome applies a sharing writeback from cluster r.c at the home.
func (m *Machine) sharingWBAtHome(r *rec) {
	hc, b, from := r.h, r.b, r.c.id
	// Stale with respect to a re-granted ownership (see wbExpected)?
	if m.staleWriteback(hc, b) {
		return
	}
	// Guarded downgrade: ownership may have moved away and back since this
	// writeback was sent (delay or retry reordering via a third cluster
	// arms no wbExpected). If the cluster holds the block dirty again — or
	// a grant back to it is still in flight (gate busy with the entry
	// dirty-owned by the sender) — the downgrade this message reports is
	// ancient.
	if e := hc.dir.Lookup(m.dirKey(b), m.now()); e != nil && e.Dirty() && e.Owner() == from &&
		!m.clusterHoldsDirty(r.c, b) && !hc.gate.Busy(b) {
		e.ClearDirty()
	}
	m.checkBlock(b)
}

// homeLocalRead serves a read whose home is the requester's own cluster.
func (m *Machine) homeLocalRead(p *proc, b int64) {
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, procEv(stLocalRead, p))
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
	i, r := m.recs.take(stLocalFwdRead)
	r.p, r.h, r.c, r.b = p, h, m.clusters[owner], b
	m.send(protocol.FwdReadReq, h.id, owner, recEv(stLocalFwdRead, i))
}

// homeLocalWrite serves a write whose home is the requester's own cluster.
// The local bus snoop has already invalidated other local copies.
func (m *Machine) homeLocalWrite(p *proc, b int64) {
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, procEv(stLocalWrite, p))
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
		present, d := q.h.Invalidate(b)
		if present && m.chk != nil {
			m.chk.Uncached(q.id, b)
		}
		if d {
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
		i, r := m.recs.take(stLocalFwdWrite)
		r.p, r.h, r.c, r.b = p, h, m.clusters[owner], b
		m.send(protocol.FwdWriteReq, h.id, owner, recEv(stLocalFwdWrite, i))
		return
	}
	// Remote sharers: invalidate them; ownership is granted immediately
	// (acknowledgements drain asynchronously under release consistency).
	targets := e.Sharers()
	targets.Remove(h.id)
	n := targets.Count()
	m.invalHist.Add(n)
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
	targets.ForEach(func(t int) {
		m.sendInval(protocol.Inval, h, m.clusters[t], b, tx, ackTo, false)
	})
}

// sendInval sends one invalidation (or recall flush) for block b from the
// home h to cluster tc. The target applies it after a bus transaction and
// acknowledges: to ackTo, which the ack is credited to, when ackTo is
// non-nil, and otherwise to the home. recall marks a sparse-directory
// replacement, whose acks the home's RAC counts.
func (m *Machine) sendInval(kind protocol.MsgKind, h, tc *clusterNode, b int64, tx *txState, ackTo *proc, recall bool) {
	i, r := m.recs.take(stInval)
	r.h, r.c, r.b, r.tx, r.ackTo, r.recall = h, tc, b, tx, ackTo, recall
	m.sendTx(kind, h.id, tc.id, tx, recEv(stInval, i))
}

// invalAtTarget applies invalidation record r at its target once the
// target's bus has run it, and sends the acknowledgement.
func (m *Machine) invalAtTarget(i uint32, r *rec) {
	m.applyInval(r.c, r.b, r.recall)
	if !r.recall {
		m.invalApplied(r.b)
	}
	to := r.h.id
	if r.ackTo != nil {
		to = r.ackTo.cl.id
	}
	m.sendTx(protocol.AckMsg, r.c.id, to, r.tx, recEv(stInvalAck, i))
}

// invalAcked credits invalidation record r's acknowledgement where it
// lands: the replacement's RAC, the writer, or the home's fan-out span.
func (m *Machine) invalAcked(r *rec) {
	switch {
	case r.recall:
		m.racAck(r.h, r.b)
		m.txAck(r.h, r.tx)
	case r.ackTo != nil:
		m.ackArrived(r.ackTo)
		m.txAck(r.ackTo.cl, r.tx)
	default:
		m.txAck(r.h, r.tx)
	}
}

// remoteReadAtHome runs when p's ReadReq arrives at the home cluster.
func (m *Machine) remoteReadAtHome(p *proc) {
	h := m.clusters[m.home(p.block)]
	m.txPhase(h, p.tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, p.block, 0)
	m.at(h, m.dirOp(h, m.t.Dir), procEv(stServeRead, p))
}

// serveRemoteRead serves p's ReadReq at the home's directory.
func (m *Machine) serveRemoteRead(p *proc) {
	b, tx := p.block, p.tx
	h := m.clusters[m.home(b)]
	if h.gate.Busy(b) {
		h.gate.Wait(b, procEv(stServeRead, p))
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
		i, r := m.recs.take(stFwdRead)
		r.p, r.h, r.c, r.b, r.tx = p, h, m.clusters[owner], b, tx
		m.sendTx(protocol.FwdReadReq, h.id, owner, tx, recEv(stFwdRead, i))
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
			p.poisoned = true
			m.txPhase(h, tx, obs.PhDirWait)
			m.sendTx(protocol.DataReply, h.id, rc, tx, procEv(stReadDone, p))
			return
		}
		// The owner itself is asking: its copy was evicted, so a
		// writeback is in flight and now stale.
		e2.ClearDirty()
		h.expectWriteback(b)
	}
	// Home-bus snoop: a home cache may hold the block dirty with no
	// directory entry; downgrade it so memory supplies current data.
	for _, q := range h.procs {
		q.h.Downgrade(b)
	}
	m.handleNBEvictions(h, b, e2.AddSharer(rc), tx)
	m.drainDirVictims(h)
	m.txPhase(h, tx, obs.PhDirWait)
	m.sendTx(protocol.DataReply, h.id, rc, tx, procEv(stReadDone, p))
}

// fwdReadAtOwner runs a three-cluster read at the owner r.c once its bus
// has downgraded the copies: the data goes to the requester, which
// reopens the home's gate, and a sharing writeback goes home.
func (m *Machine) fwdReadAtOwner(i uint32, r *rec) {
	oc := r.c
	for _, q := range oc.procs {
		q.h.Downgrade(r.b)
	}
	m.txPhase(oc, r.tx, obs.PhFanout)
	m.sendReply(protocol.DataReply, oc, i, r)
	m.sendTx(protocol.SharingWB, oc.id, r.h.id, r.tx, sim.Event{Stage: uint32(stNop)})
}

// remoteWriteAtHome runs when p's WriteReq/UpgradeReq arrives at the home.
func (m *Machine) remoteWriteAtHome(p *proc) {
	h := m.clusters[m.home(p.block)]
	m.txPhase(h, p.tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, p.block, 1)
	m.at(h, m.dirOp(h, m.t.Dir), procEv(stServeWrite, p))
}

// serveRemoteWrite serves p's WriteReq/UpgradeReq at the home's directory.
func (m *Machine) serveRemoteWrite(p *proc) {
	b, tx := p.block, p.tx
	h := m.clusters[m.home(b)]
	if h.gate.Busy(b) {
		h.gate.Wait(b, procEv(stServeWrite, p))
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
		i, r := m.recs.take(stFwdWrite)
		r.p, r.h, r.c, r.b, r.tx = p, h, m.clusters[owner], b, tx
		m.sendTx(protocol.FwdWriteReq, h.id, owner, tx, recEv(stFwdWrite, i))
		return
	}
	if e.Dirty() && e.Owner() == rc && !m.clusterHoldsDirty(p.cl, b) {
		// Re-granting to the recorded owner: its in-flight writeback is
		// stale (see wbExpected). If the cluster still holds the block
		// dirty the request itself is the stale artifact (delay or retry
		// reordering) and no writeback is coming — don't expect one.
		h.expectWriteback(b)
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
	if n > 0 && !e.Precise() {
		m.trace(obs.EvOverflow, h.id, b, int64(n))
	}
	e.SetDirty(rc)
	m.drainDirVictims(h)
	h.gate.Lock(b)
	m.txPhase(h, tx, obs.PhDirWait)
	// The ownership reply carries the requester's ack count; the acks go
	// straight to the requester and may overtake it (see ackArrived).
	i, r := m.recs.take(stReply)
	r.p, r.h, r.b, r.tx, r.n = p, h, b, tx, n
	m.sendReply(protocol.OwnershipReply, h, i, r)
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

// sendReply sends the reply on record r (requester r.p, home r.h, block
// r.b), which completes an ownership-moving transaction, from cluster
// from, and reopens the home's gate for the block once the reply has
// landed. With the delivery time known at send time the gate reopens from
// an event keyed right after the reply, so no request queued behind the
// gate can observe the block before the requester holds it, and the home
// never waits on a requester-side stage. Under the fault model a delayed
// or retried reply's arrival is unknowable when it is sent, so the reply
// itself reopens the gate. The stage that reopens the gate releases r.
func (m *Machine) sendReply(kind protocol.MsgKind, from *clusterNode, i uint32, r *rec) {
	r.write = kind == protocol.OwnershipReply
	if m.faultsOn {
		m.sendTx(kind, from.id, r.p.cl.id, r.tx, recEv(stReplyReopen, i))
		return
	}
	t := m.sendTx(kind, from.id, r.p.cl.id, r.tx, recEv(stReply, i))
	m.at(from, t, recEv(stReopen, i))
}

// replyArrived completes the requester's transaction when reply record r
// lands.
func (m *Machine) replyArrived(r *rec) {
	if r.write {
		m.remoteWriteDone(r.p, r.b, r.p.upgrade, r.n, r.tx)
		return
	}
	m.remoteReadDone(r.p, r.b, r.tx)
}

// reopen unlocks home h's gate for b, replaying the requests queued behind
// it, and re-checks the settled block.
func (m *Machine) reopen(h *clusterNode, b int64) {
	h.gate.Unlock(b, m.fire)
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
	p.miss = noMiss
	for w := p.popMerged(); w != nil; w = p.popMerged() {
		m.at(c, m.now()+m.t.Fill, procEv(stRetry, w))
	}
}

// handleNBEvictions invalidates sharers dropped by a Dir_iNB pointer
// overflow. These are the paper's read-caused invalidation events (Fig 4).
func (m *Machine) handleNBEvictions(h *clusterNode, b int64, ev []core.NodeID, tx *txState) {
	if len(ev) == 0 {
		return
	}
	m.invalHist.Add(len(ev))
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
		if v != h.id {
			m.sendInval(protocol.Inval, h, m.clusters[v], b, tx, nil, false)
		}
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
	if h.gate.Busy(vb) {
		// The victim block has a transaction in flight; its state keeps
		// evolving in ve, so run the replacement when the gate clears.
		i, r := m.recs.take(stRecall)
		r.h, r.b, r.e = h, vb, ve
		h.gate.Wait(vb, recEv(stRecall, i))
		return
	}
	m.sendReplacementInvals(h, vb, ve)
}

// sendReplacementInvals recalls every cached copy of the reclaimed entry
// ve's block vb: a flush to the dirty owner, or invalidations to the
// sharers. The home's RAC counts the acknowledgements and the block's gate
// stays locked until they arrive.
func (m *Machine) sendReplacementInvals(h *clusterNode, vb int64, ve core.Entry) {
	if ve.Empty() {
		m.recallPending(vb, -1)
		return
	}
	if ve.Dirty() {
		owner := ve.Owner()
		m.replHist.Add(1)
		m.trace(obs.EvDirEvict, h.id, vb, 1)
		tx := m.txStart(obs.TxEvict, h, vb)
		m.txFanout(tx, 1, true)
		m.occupyDir(h, m.t.InvalSend)
		h.gate.Lock(vb)
		h.rac.Start(vb, 1)
		m.sendInval(protocol.Flush, h, m.clusters[owner], vb, tx, nil, true)
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
	m.trace(obs.EvDirEvict, h.id, vb, int64(n))
	tx := m.txStart(obs.TxEvict, h, vb)
	m.txFanout(tx, n, true)
	m.occupyDir(h, m.t.InvalSend*sim.Time(n))
	h.gate.Lock(vb)
	h.rac.Start(vb, n)
	targets.ForEach(func(t int) {
		m.sendInval(protocol.Inval, h, m.clusters[t], vb, tx, nil, true)
	})
}

func (m *Machine) racAck(h *clusterNode, vb int64) {
	if h.rac.Ack(vb) {
		m.recallPending(vb, -1)
		m.checkRecallClean(h, vb)
		m.reopen(h, vb)
	}
}
