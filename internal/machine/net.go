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
type netMsg struct {
	id        uint64
	kind      protocol.MsgKind
	from, to  int
	attempt   int      // send attempts so far (1 = the original)
	first     sim.Time // injection time of the first attempt
	sent      sim.Time // injection time of the latest attempt
	timeout   sim.Time // current retransmit timeout
	delivered bool     // receiver-side dedup latch: the handler ran
	failed    bool     // retry budget exhausted, message abandoned
	deliver   func()
	tx        *txState // transaction for net.recovery spans, may be nil
}

// sendReliable wraps arrive in an envelope from cluster fc and dispatches
// the first attempt.
func (m *Machine) sendReliable(fc *clusterNode, kind protocol.MsgKind, to int, tx *txState, arrive func()) {
	m.msgSeq++
	env := &netMsg{
		id: m.msgSeq, kind: kind, from: fc.id, to: to,
		first: m.now(), timeout: m.baseTimeout(fc.id, to),
		deliver: arrive, tx: tx,
	}
	m.inflight[env.id] = env
	m.dispatch(env)
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

// dispatch injects one attempt of env into the faulty mesh from the
// sender's context: the copies that survive are scheduled for delivery,
// and a retransmit timer guards the attempt. Stale timers (the attempt was
// superseded or the message delivered) fall through timeoutMsg as no-ops.
func (m *Machine) dispatch(env *netMsg) {
	fc := m.clusters[env.from]
	env.attempt++
	env.sent = m.now()
	arrivals, n := m.net.SendFaulty(env.sent, env.from, env.to)
	for i := 0; i < n; i++ {
		m.at(fc, arrivals[i], func() { m.deliverMsg(env) })
	}
	att := env.attempt
	m.at(fc, env.sent+env.timeout, func() { m.timeoutMsg(env, att) })
}

// deliverMsg runs env's handler exactly once; every further copy (a
// duplicate, or a retry racing a delayed original) is suppressed.
func (m *Machine) deliverMsg(env *netMsg) {
	if env.delivered {
		m.dupSuppressed.Inc()
		return
	}
	env.delivered = true
	delete(m.inflight, env.id)
	env.deliver()
}

// timeoutMsg handles attempt att's retransmit timer: re-send with doubled
// timeout while the budget lasts, then abandon the message for the
// watchdog to report.
func (m *Machine) timeoutMsg(env *netMsg, att int) {
	if env.delivered || env.failed || att != env.attempt {
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
	m.dispatch(env)
}

// emitRecovery annotates env.tx with one recovery episode: an async child
// span covering the lost attempt's injection to the retry, its N carrying
// the attempt number so tracelens can show retry-inflated tails. It runs in
// the sender's context, where the retransmit timer fired.
func (m *Machine) emitRecovery(env *netMsg) {
	tx := env.tx
	if tx == nil || m.spans == nil {
		return
	}
	m.emitSpan(obs.Span{
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
		if p.afterDrain != nil {
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
		for _, blk := range sortedKeys(c.pendingReads) {
			parts = append(parts, fmt.Sprintf("pendingRead@%d(%d merged)", blk, len(c.pendingReads[blk])))
		}
		for _, blk := range sortedKeys(c.pendingWrite) {
			parts = append(parts, fmt.Sprintf("pendingWrite@%d", blk))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "  cluster %d: %s\n", c.id, strings.Join(parts, " "))
		}
	}
	if m.faultsOn {
		ids := sortedKeys(m.inflight)
		for _, id := range ids {
			env := m.inflight[id]
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
