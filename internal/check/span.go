package check

import "dircoh/internal/obs"

// txSpans accumulates one transaction's span tree for the tiling check:
// the synchronous children must partition [root.Start, root.End] exactly,
// in emission order, and every child needs a root — the same contract
// cmd/tracelens verifies offline, re-checked here live so a span-emission
// bug is caught in the run that introduces it.
type txSpans struct {
	class      obs.TxClass
	rootSeen   bool
	firstStart uint64 // start of the first synchronous child
	cursor     uint64 // end of the last synchronous child
	sync       int    // synchronous children seen
	ackSeen    bool   // an asynchronous ack.gather child already arrived
	waitAck    bool   // an asynchronous ack.gather child is still due
}

// Span feeds one emitted span to the tiling verifier. The machine funnels
// every span through here (including when it records none), so the
// cross-check runs whenever the checker is enabled.
func (r *Recorder) Span(s obs.Span) {
	if s.End < s.Start {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"span %d (%s/%s) ends at %d before it starts at %d", s.ID, s.Class, s.Phase, s.End, s.Start)
		return
	}
	if s.Phase == obs.PhRecovery {
		// Recovery episodes are free-floating annotations under the fault
		// model: any number may occur per transaction, before or after the
		// root, so they take no part in the tiling or the async-ack
		// bookkeeping below (which assumes exactly one owed ack.gather).
		return
	}
	// The state is held by value: a transaction that is still owed spans
	// is written back, a finished one deleted, so a run allocates no
	// record per transaction.
	tx, ok := r.spanTx[s.Tx]
	if !ok {
		tx.class = s.Class
	}
	if s.Parent == 0 { // root span
		if tx.rootSeen {
			r.Violationf(RuleSpan, s.Node, s.Block, s.End, "transaction %d emitted two root spans", s.Tx)
			return
		}
		tx.rootSeen = true
		if tx.sync > 0 && (tx.firstStart != s.Start || tx.cursor != s.End) {
			r.Violationf(RuleSpan, s.Node, s.Block, s.End,
				"transaction %d (%s) children tile [%d,%d] but root covers [%d,%d]",
				s.Tx, s.Class, tx.firstStart, tx.cursor, s.Start, s.End)
		}
		// Non-eviction transactions with fan-out owe an asynchronous
		// ack.gather child that may land after the root.
		if s.N > 0 && s.Class != obs.TxEvict && !tx.ackSeen {
			tx.waitAck = true
			r.spanTx[s.Tx] = tx
			return
		}
		delete(r.spanTx, s.Tx)
		return
	}
	if s.Phase.Async(s.Class) {
		// Asynchronous child: it overlaps the root rather than tiling it.
		if tx.rootSeen {
			delete(r.spanTx, s.Tx) // the awaited ack.gather arrived
		} else {
			tx.ackSeen = true // arrived before the root; nothing more owed
			r.spanTx[s.Tx] = tx
		}
		return
	}
	if tx.rootSeen {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"transaction %d emitted a synchronous %s child after its root", s.Tx, s.Phase)
		return
	}
	if tx.sync == 0 {
		tx.firstStart = s.Start
	} else if s.Start != tx.cursor {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"transaction %d phase %s starts at %d but the previous phase ended at %d (gap or overlap)",
			s.Tx, s.Phase, s.Start, tx.cursor)
	}
	tx.cursor = s.End
	tx.sync++
	r.spanTx[s.Tx] = tx
}

// finishSpans reports transactions whose span trees never completed.
func (r *Recorder) finishSpans(cycle uint64) {
	for id, tx := range r.spanTx {
		switch {
		case !tx.rootSeen:
			r.Violationf(RuleSpan, -1, -1, cycle,
				"transaction %d (%s) emitted %d child spans but no root (orphaned transaction)", id, tx.class, tx.sync)
		case tx.waitAck:
			r.Violationf(RuleSpan, -1, -1, cycle,
				"transaction %d (%s) ended without its ack.gather span (lost acknowledgements)", id, tx.class)
		}
	}
}
