package machine

import (
	"fmt"
	"sort"
	"strings"

	"dircoh/internal/check"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
)

// End-to-end delivery recovery over the unreliable mesh (Mesh.Faults).
// Every protocol message becomes a sequence-numbered envelope: the sender
// schedules the copies the fault model lets through plus a retransmit
// timer, the receiver's delivered latch makes the handler idempotent
// (duplicates are counted, not executed), and a message whose timer fires
// undelivered is re-sent with exponential backoff until the retry budget
// runs out. A transaction the recovery machinery still cannot complete is
// caught by the core's liveness watchdog (see Machine.run). The envelopes
// and timers are scheduled in the sending cluster's context. With faults
// off none of this exists: send takes the plain mesh path.

const (
	// DefaultMaxRetries is the retransmit budget per message when
	// Config.Retry.MaxRetries is 0.
	DefaultMaxRetries = 8
	// DefaultStuckBudget is the watchdog's no-progress budget (in cycles)
	// when faults are enabled and Config.StuckBudget is 0. Generous: the
	// full backoff sequence of a congested message plus heavy lock
	// contention stays well inside it.
	DefaultStuckBudget sim.Time = 1 << 20
	// backoffCap bounds the retransmit timeout at backoffCap times the
	// base timeout.
	backoffCap = 64
)

// netMsg is one logical protocol message in flight under the fault model.
// id is the machine-wide sequence number duplicates are recognized by.
// Envelopes live in the machine's envelope slab; refs counts the copies
// and the retransmit timer still scheduled on one, and a delivered
// envelope returns to the slab when the last of them has fired.
type netMsg struct {
	id        uint64
	kind      protocol.MsgKind
	from, to  int
	attempt   int       // send attempts so far (1 = the original)
	first     sim.Time  // injection time of the first attempt
	sent      sim.Time  // injection time of the latest attempt
	timeout   sim.Time  // current retransmit timeout
	delivered bool      // receiver-side dedup latch: the handler ran
	failed    bool      // retry budget exhausted, message abandoned
	refs      int       // scheduled copies and timers naming this envelope
	deliver   sim.Event // the arrival event the first surviving copy fires
	tx        *txState  // transaction for net.recovery spans, may be nil
}

// sendReliable wraps arrive in an envelope from cluster fc and dispatches
// the first attempt.
func (m *Machine) sendReliable(fc *clusterNode, kind protocol.MsgKind, to int, tx *txState, arrive sim.Event) {
	m.msgSeq++
	i, env := m.envs.take(stDeliver)
	*env = netMsg{
		id: m.msgSeq, kind: kind, from: fc.id, to: to,
		first: m.now(), timeout: m.baseTimeout(fc.id, to),
		deliver: arrive, tx: tx,
	}
	if tx != nil {
		tx.envs++
	}
	m.inflight[env.id] = i
	m.dispatch(i, env)
}

// baseTimeout is the first-attempt retransmit timeout toward to: several
// one-way latencies plus directory service slack, so queueing alone
// rarely triggers a spurious (but harmless) retry.
func (m *Machine) baseTimeout(from, to int) sim.Time {
	if m.cfg.Retry.Timeout > 0 {
		return m.cfg.Retry.Timeout
	}
	return 4*m.net.Latency(from, to) + 4*m.t.Dir + 16
}

// dispatch injects one attempt of envelope i into the faulty mesh from the
// sender's context: the copies that survive are scheduled for delivery,
// and a retransmit timer guards the attempt. A message has one timer
// pending at a time (the next attempt is dispatched from it), and a timer
// that finds the message delivered falls through timeoutMsg as a no-op.
func (m *Machine) dispatch(i uint32, env *netMsg) {
	fc := m.clusters[env.from]
	env.attempt++
	env.sent = m.now()
	arrivals, n := m.net.SendFaulty(env.sent, env.from, env.to)
	for k := 0; k < n; k++ {
		m.at(fc, arrivals[k], recEv(stDeliver, i))
	}
	m.at(fc, env.sent+env.timeout, recEv(stTimeout, i))
	env.refs += n + 1
}

// deliverMsg runs envelope i's handler exactly once; every further copy (a
// duplicate, or a retry racing a delayed original) is suppressed.
func (m *Machine) deliverMsg(i uint32) {
	env := m.envs.at(i, stDeliver)
	env.refs--
	if env.delivered {
		m.dupSuppressed.Inc()
		m.settleEnv(i, env, stDeliver)
		return
	}
	env.delivered = true
	delete(m.inflight, env.id)
	ev, tx := env.deliver, env.tx
	m.settleEnv(i, env, stDeliver)
	m.fire(ev)
	if tx != nil {
		tx.envs--
		m.txRelease(tx)
	}
}

// timeoutMsg handles envelope i's retransmit timer: re-send with doubled
// timeout while the budget lasts, then abandon the message for the
// watchdog to report.
func (m *Machine) timeoutMsg(i uint32) {
	env := m.envs.at(i, stTimeout)
	env.refs--
	if env.delivered || env.failed {
		m.settleEnv(i, env, stTimeout)
		return
	}
	if env.attempt > m.cfg.Retry.MaxRetries {
		env.failed = true
		m.retryGiveup.Inc()
		return
	}
	m.retryCnt.Inc()
	m.emitRecovery(env)
	if next := env.timeout * 2; next <= m.baseTimeout(env.from, env.to)*backoffCap {
		env.timeout = next
	}
	m.dispatch(i, env)
}

// settleEnv returns a delivered envelope to the slab once no scheduled
// copy or timer names it any more. An abandoned envelope stays for the
// diagnostic dump.
func (m *Machine) settleEnv(i uint32, env *netMsg, st stage) {
	if env.delivered && env.refs == 0 {
		m.envs.release(i, st)
	}
}

// emitRecovery annotates env.tx with one recovery episode: an async child
// span covering the lost attempt's injection to the retry, its N carrying
// the attempt number so tracelens can show retry-inflated tails. It runs in
// the sender's context, where the retransmit timer fired.
func (m *Machine) emitRecovery(env *netMsg) {
	tx := env.tx
	if tx == nil || !m.txOn {
		return
	}
	m.emitSpan(tx, &obs.Span{
		Tx: tx.id, ID: m.spanID(m.clusters[env.from]), Parent: tx.id,
		Class: tx.class, Phase: obs.PhRecovery, Node: tx.node, Block: tx.block,
		Start: uint64(env.sent), End: uint64(m.now()), N: int64(env.attempt),
	})
}

// StuckError reports a run aborted without completing: the liveness
// watchdog found stuck processors, the wall-clock deadline expired, or
// the event queue drained with work remaining (undeliverable messages).
// Dump carries the full diagnostic: per-processor state and pending
// acknowledgements, gate/RAC/MSHR occupancy per cluster, and every
// in-flight or abandoned network envelope with its transaction context.
type StuckError struct {
	Reason string
	Dump   string
}

func (e *StuckError) Error() string {
	return "machine: " + e.Reason + "\n" + e.Dump
}

// abort records the liveness failure (as a checker violation when the
// checker is on) and returns the StuckError that ends the run.
func (m *Machine) abort(reason string) *StuckError {
	if m.chk != nil {
		m.chk.Violationf(check.RuleLiveness, -1, -1, uint64(m.now()), "%s", reason)
	}
	return &StuckError{Reason: reason, Dump: m.diagnosticDump()}
}

// diagnosticDump renders the machine's stuck state for StuckError.
func (m *Machine) diagnosticDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  t=%d events_fired=%d events_pending=%d\n", m.now(), m.w.Fired(), m.w.Pending())
	for _, p := range m.procs {
		if p.done {
			continue
		}
		fmt.Fprintf(&b, "  proc %d (cluster %d): %d refs remaining, %d acks pending, last progress t=%d",
			p.id, p.cl.id, p.stream.Remaining(), p.pendingAcks, p.lastProgress)
		if p.opPending {
			op := "read"
			if p.opWrite {
				op = "write"
			}
			fmt.Fprintf(&b, ", %s in flight since t=%d", op, p.opStart)
		}
		if p.fenced {
			b.WriteString(", fenced")
		}
		if p.drainToFinish {
			b.WriteString(", draining to finish")
		}
		if tx := m.lockTxOf(p); tx != nil {
			fmt.Fprintf(&b, ", lock tx %d on addr %d open since t=%d", tx.id, tx.block, tx.start)
		}
		b.WriteByte('\n')
	}
	for _, c := range m.clusters {
		var parts []string
		for _, blk := range c.gate.BusyBlocks() {
			parts = append(parts, fmt.Sprintf("gate@%d(+%d queued)", blk, c.gate.Pending(blk)))
		}
		for _, blk := range c.rac.TrackedBlocks() {
			parts = append(parts, fmt.Sprintf("rac@%d(%d acks owed)", blk, c.rac.Outstanding(blk)))
		}
		for _, q := range c.misses(readMiss) {
			parts = append(parts, fmt.Sprintf("pendingRead@%d(%d merged)", q.block, q.mergedCount()))
		}
		for _, q := range c.misses(writeMiss) {
			parts = append(parts, fmt.Sprintf("pendingWrite@%d", q.block))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "  cluster %d: %s\n", c.id, strings.Join(parts, " "))
		}
	}
	if m.faultsOn {
		ids := sortedKeys(m.inflight)
		for _, id := range ids {
			env := m.envs.at(m.inflight[id], stTimeout)
			status := "in flight"
			if env.failed {
				status = "given up"
			}
			fmt.Fprintf(&b, "  msg %d %v %d->%d: %s, attempt %d, first sent t=%d, last sent t=%d, timeout %d",
				id, env.kind, env.from, env.to, status, env.attempt, env.first, env.sent, env.timeout)
			if tx := env.tx; tx != nil {
				fmt.Fprintf(&b, " [tx %d %v block %d, open since t=%d, in phase since t=%d, %d acks outstanding]",
					tx.id, tx.class, tx.block, tx.start, tx.mark, tx.acks)
			}
			b.WriteByte('\n')
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// misses returns c's processors that lead a remote miss of kind k, sorted
// by block.
func (c *clusterNode) misses(k missKind) []*proc {
	var out []*proc
	for _, q := range c.procs {
		if q.miss == k {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].block < out[j].block })
	return out
}

// mergedCount returns the number of accesses merged onto p's miss.
func (p *proc) mergedCount() int {
	n := 0
	for q := p.merged; q != nil; q = q.nextMerged {
		n++
	}
	return n
}

// sortedKeys returns m's keys in ascending order (diagnostics must render
// deterministically).
func sortedKeys[K int64 | uint64, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
