package check

import (
	"cmp"
	"slices"

	"dircoh/internal/obs"
)

// TxSpans is one transaction's span tree as the tiling verifier has seen
// it so far: the synchronous children must partition [root.Start,
// root.End] exactly, in emission order, and every child needs a root —
// the same contract cmd/tracelens verifies offline, re-checked here live
// so a span-emission bug is caught in the run that introduces it.
//
// The machine keeps one TxSpans in each transaction record and hands it to
// Span with every span of that transaction, so the verifier keeps no
// table of its own. The zero value is a tree no span has reached; a
// completed tree returns to it. A tree still owed spans is listed in the
// recorder until it completes, so Finish can report it.
type TxSpans struct {
	tx         uint64 // the transaction, set by its first span
	firstStart uint64 // start of the first synchronous child
	cursor     uint64 // end of the last synchronous child
	sync       int32  // synchronous children seen
	live       int32  // 1 + the tree's index in Recorder.live; 0 when no span is owed
	class      obs.TxClass
	rootSeen   bool
	ackSeen    bool // an asynchronous ack.gather child already arrived
	waitAck    bool // an asynchronous ack.gather child is still due
}

// Span feeds one emitted span, with its transaction's tiling state t, to
// the tiling verifier. The machine funnels every span through here
// (including when it records none), so the cross-check runs whenever the
// checker is enabled. Span does not keep s.
func (r *Recorder) Span(s *obs.Span, t *TxSpans) {
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
	if t.live == 0 {
		*t = TxSpans{tx: s.Tx, class: s.Class}
		r.live = append(r.live, t)
		t.live = int32(len(r.live))
	} else if t.tx != s.Tx {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"span %d of transaction %d was handed the tiling state of transaction %d", s.ID, s.Tx, t.tx)
		return
	}
	if s.Parent == 0 { // root span
		if t.rootSeen {
			r.Violationf(RuleSpan, s.Node, s.Block, s.End, "transaction %d emitted two root spans", s.Tx)
			return
		}
		t.rootSeen = true
		if t.sync > 0 && (t.firstStart != s.Start || t.cursor != s.End) {
			r.Violationf(RuleSpan, s.Node, s.Block, s.End,
				"transaction %d (%s) children tile [%d,%d] but root covers [%d,%d]",
				s.Tx, s.Class, t.firstStart, t.cursor, s.Start, s.End)
		}
		// Non-eviction transactions with fan-out owe an asynchronous
		// ack.gather child that may land after the root.
		if s.N > 0 && s.Class != obs.TxEvict && !t.ackSeen {
			t.waitAck = true
			return
		}
		r.complete(t)
		return
	}
	if s.Phase.Async(s.Class) {
		// Asynchronous child: it overlaps the root rather than tiling it.
		if t.rootSeen {
			r.complete(t) // the awaited ack.gather arrived
		} else {
			t.ackSeen = true // arrived before the root; nothing more owed
		}
		return
	}
	if t.rootSeen {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"transaction %d emitted a synchronous %s child after its root", s.Tx, s.Phase)
		return
	}
	if t.sync == 0 {
		t.firstStart = s.Start
	} else if s.Start != t.cursor {
		r.Violationf(RuleSpan, s.Node, s.Block, s.End,
			"transaction %d phase %s starts at %d but the previous phase ended at %d (gap or overlap)",
			s.Tx, s.Phase, s.Start, t.cursor)
	}
	t.cursor = s.End
	t.sync++
}

// complete forgets t's finished tree: it leaves the live list (the last
// live tree takes its place) and returns to the zero value, so a later
// span naming the same transaction starts a new tree.
func (r *Recorder) complete(t *TxSpans) {
	last := r.live[len(r.live)-1]
	r.live[t.live-1] = last
	last.live = t.live
	r.live = r.live[:len(r.live)-1]
	*t = TxSpans{}
}

// Release tells the verifier that the machine is done with t's record and
// may reuse it: a tree still owed spans is copied aside, so Finish still
// reports it.
func (r *Recorder) Release(t *TxSpans) {
	if t.live != 0 {
		r.retired = append(r.retired, *t)
		r.complete(t)
	}
}

// finishSpans reports transactions whose span trees never completed, in
// ascending transaction order.
func (r *Recorder) finishSpans(cycle uint64) {
	open := r.retired
	for _, t := range r.live {
		open = append(open, *t)
	}
	slices.SortFunc(open, func(a, b TxSpans) int { return cmp.Compare(a.tx, b.tx) })
	for _, t := range open {
		switch {
		case !t.rootSeen:
			r.Violationf(RuleSpan, -1, -1, cycle,
				"transaction %d (%s) emitted %d child spans but no root (orphaned transaction)", t.tx, t.class, t.sync)
		case t.waitAck:
			r.Violationf(RuleSpan, -1, -1, cycle,
				"transaction %d (%s) ended without its ack.gather span (lost acknowledgements)", t.tx, t.class)
		}
	}
}
