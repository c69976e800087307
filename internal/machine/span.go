package machine

import (
	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// txState tracks one in-flight remote transaction for span emission. It
// exists only while span tracing is enabled (Config.Spans non-nil); every
// helper below treats a nil receiver argument as tracing-off and costs one
// branch, so the simulation hot path is untouched when spans are disabled.
//
// The machine emits child spans as the transaction crosses phase
// boundaries: mark carries the start of the phase currently in progress, so
// the synchronous children tile [start, end of root] exactly — the
// invariant tracelens verifies. Acknowledgement gathering is the one
// exception: it overlaps the reply (release consistency), so its span is
// emitted when the last ack arrives, possibly after the root.
//
// The txState travels along the transaction's message chain. Helpers that
// allocate span IDs take the executing cluster, which anchors the ID.
type txState struct {
	id    uint64
	class obs.TxClass
	node  int32
	block int64
	start sim.Time
	mark  sim.Time

	// Invalidation fan-out bookkeeping: acks counts outstanding
	// acknowledgements, ackStart the dispatch time. endOnAcks marks
	// transactions (evictions) whose root ends with the last ack.
	acks      int
	ackStart  sim.Time
	fanout    int64
	endOnAcks bool
}

// spanID allocates the next span identifier in cluster c's context: the
// executing cluster and its private sequence (cluster in the high bits,
// like event ordering keys), so the IDs a run emits follow per-cluster
// emission order. IDs are never zero — Parent == 0 stays the root marker.
func (m *Machine) spanID(c *clusterNode) uint64 {
	c.spanSeq++
	return uint64(c.id)<<40 | c.spanSeq
}

// txStart opens a transaction at the current cycle in cluster c's context
// (always the requesting cluster), or returns nil when span tracing is off.
func (m *Machine) txStart(class obs.TxClass, c *clusterNode, block int64) *txState {
	if m.spans == nil {
		return nil
	}
	now := m.now()
	// Records are carved from a slab: one object per transaction was the
	// largest single cost of span tracing.
	if len(m.txSlab) == 0 {
		m.txSlab = make([]txState, txSlabLen)
	}
	tx := &m.txSlab[0]
	m.txSlab = m.txSlab[1:]
	*tx = txState{id: m.spanID(c), class: class, node: int32(c.id), block: block, start: now, mark: now}
	if m.chk != nil {
		m.chk.OpenTx(block, tx.id)
	}
	return tx
}

// emitSpan hands one span to the recorder and, when checking is on, to
// the checker's span-tiling verifier.
func (m *Machine) emitSpan(s obs.Span) {
	if m.chk != nil {
		m.chk.Span(s)
	}
	m.spans.Emit(s)
}

// txLatName holds the per-class transaction latency histogram names
// ("tx.lat.<class>"), built once so recording a latency never concatenates.
var txLatName = func() (n [obs.NumTxClasses]string) {
	for c := range n {
		n[c] = "tx.lat." + obs.TxClass(c).String()
	}
	return n
}()

// txPhase closes the phase that began at tx.mark, emitting its child span,
// and starts the next phase at the current cycle. c is the cluster whose
// event is crossing the phase boundary.
func (m *Machine) txPhase(c *clusterNode, tx *txState, ph obs.Phase) {
	if tx == nil {
		return
	}
	now := m.now()
	m.emitSpan(obs.Span{
		Tx: tx.id, ID: m.spanID(c), Parent: tx.id,
		Class: tx.class, Phase: ph, Node: tx.node, Block: tx.block,
		Start: uint64(tx.mark), End: uint64(now),
	})
	tx.mark = now
}

// txFanout registers n outstanding invalidation acknowledgements dispatched
// at the current cycle by the home. When endOnAcks is
// set the transaction's root span ends at the last ack (eviction recalls);
// otherwise the acks drain asynchronously and only the ack.gather child
// depends on them.
func (m *Machine) txFanout(tx *txState, n int, endOnAcks bool) {
	if tx == nil || n <= 0 {
		return
	}
	tx.acks += n
	tx.fanout += int64(n)
	tx.ackStart = m.now()
	tx.endOnAcks = endOnAcks
}

// txAck records one acknowledgement arriving at cluster c; the last one
// emits the ack.gather span and, for endOnAcks transactions, the root.
func (m *Machine) txAck(c *clusterNode, tx *txState) {
	if tx == nil {
		return
	}
	tx.acks--
	if tx.acks > 0 {
		return
	}
	now := m.now()
	m.emitSpan(obs.Span{
		Tx: tx.id, ID: m.spanID(c), Parent: tx.id,
		Class: tx.class, Phase: obs.PhAckGather, Node: tx.node, Block: tx.block,
		Start: uint64(tx.ackStart), End: uint64(now), N: tx.fanout,
	})
	if tx.endOnAcks {
		tx.mark = now
		m.txEnd(tx)
	}
}

// txEnd emits the transaction's root span and records its latency in its
// class histogram.
func (m *Machine) txEnd(tx *txState) {
	if tx == nil {
		return
	}
	now := m.now()
	m.emitSpan(obs.Span{
		Tx: tx.id, ID: tx.id, Parent: 0,
		Class: tx.class, Phase: obs.PhTotal, Node: tx.node, Block: tx.block,
		Start: uint64(tx.start), End: uint64(now), N: tx.fanout,
	})
	m.txLat[tx.class].Observe(m.cycleDelta(now, tx.start, txLatName[tx.class]))
	if m.chk != nil {
		m.chk.CloseTx(tx.block, tx.id)
	}
}

// lockTxSet remembers p's open lock-round transaction so the grant or wake
// path (which reaches p through the lock table, not a closure) can close
// it. A processor has at most one lock acquisition in flight; the state
// lives on the proc itself so the home's grant path reads it without
// touching any shared map (p is parked until the grant arrives, so the
// home-side read is ordered after the requester-side write by the request
// message itself).
func (m *Machine) lockTxSet(p *proc, tx *txState) {
	if tx != nil {
		p.lockTx = tx
	}
}

// lockTxOf returns p's open lock-round transaction, or nil.
func (m *Machine) lockTxOf(p *proc) *txState {
	if m.spans == nil {
		return nil
	}
	return p.lockTx
}

// lockTxEnd closes p's open lock-round transaction, if any. It runs in
// p's own cluster context (the grant or wake has arrived at p's cluster).
func (m *Machine) lockTxEnd(p *proc) {
	if m.spans == nil {
		return
	}
	if tx := p.lockTx; tx != nil {
		p.lockTx = nil
		m.txEnd(tx)
	}
}
