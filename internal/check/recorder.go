package check

import (
	"fmt"

	"dircoh/internal/obs"
)

// maxStored bounds the violations a Recorder keeps in memory; every
// violation is still counted and written to the sink.
const maxStored = 64

// Recorder accumulates the shadow state the invariant checks need and
// records violations. A Recorder belongs to exactly one machine (it is
// single-writer, like the machine's metrics registry); the machine calls
// the bookkeeping methods from its protocol transitions and the check
// methods after each transition settles.
type Recorder struct {
	sink    Sink
	ctr     [numRules]*obs.Counter
	stored  []Violation
	total   uint64
	sinkErr error // sticky first sink error

	// inflight counts invalidations dispatched but not yet applied, per
	// block. While a block has in-flight invalidations its invariants are
	// legitimately in transition and the per-block checks stand down.
	inflight map[int64]int

	// acks shadows each processor's outstanding invalidation
	// acknowledgements, maintained independently from the machine's own
	// count so the two can be cross-checked at fences and at the end of
	// the run.
	acks map[int]int

	// extra is the checker's independent recount of extraneous
	// invalidations (directed invalidations that found no copy), compared
	// against the dir.inval.extraneous counter when the run finishes.
	extra uint64

	// openTx maps a block to the most recently opened transaction on it,
	// giving violations best-effort transaction context (concurrent
	// transactions on one block — e.g. two read misses from different
	// clusters — keep only the latest).
	openTx map[int64]uint64

	// spanTx tracks the span tree of every transaction for the tiling
	// cross-check.
	spanTx map[uint64]txSpans

	// Scratch buffer reused by the machine's per-block cache scans.
	Scratch []int32
}

// NewRecorder returns a recorder registering its violation counters in
// reg (nil creates a private registry) and writing records to sink (nil
// counts violations without writing records).
func NewRecorder(reg *obs.Registry, sink Sink) *Recorder {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Recorder{
		sink:     sink,
		inflight: make(map[int64]int),
		acks:     make(map[int]int),
		openTx:   make(map[int64]uint64),
		spanTx:   make(map[uint64]txSpans),
	}
	for i := range r.ctr {
		r.ctr[i] = reg.Counter(Rule(i).MetricName())
	}
	return r
}

// Record counts one violation and writes it to the sink.
func (r *Recorder) Record(v Violation) {
	r.total++
	r.ctr[v.Rule].Inc()
	if len(r.stored) < maxStored {
		r.stored = append(r.stored, v)
	}
	if r.sink != nil {
		if err := r.sink.WriteViolation(v); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
}

// Violationf records a violation with a formatted detail.
func (r *Recorder) Violationf(rule Rule, node int32, block int64, cycle uint64, format string, args ...any) {
	r.Record(Violation{
		Rule: rule, Tx: r.openTx[block], Block: block, Node: node,
		Cycle: cycle, Detail: fmt.Sprintf(format, args...),
	})
}

// Count returns the total number of violations recorded.
func (r *Recorder) Count() uint64 { return r.total }

// Violations returns the stored violations (capped at an internal limit;
// Count reports the true total).
func (r *Recorder) Violations() []Violation { return r.stored }

// SinkErr returns the first sink write error, if any.
func (r *Recorder) SinkErr() error { return r.sinkErr }

// InvalSent records n invalidations dispatched for block.
func (r *Recorder) InvalSent(block int64, n int) {
	if n > 0 {
		r.inflight[block] += n
	}
}

// InvalApplied records one invalidation arriving (and being applied, or
// deliberately dropped by fault injection) at its target for block.
func (r *Recorder) InvalApplied(block int64, cycle uint64) {
	n := r.inflight[block]
	if n <= 0 {
		r.Violationf(RuleAck, -1, block, cycle, "invalidation applied with none in flight")
		return
	}
	if n == 1 {
		delete(r.inflight, block)
	} else {
		r.inflight[block] = n - 1
	}
}

// Inflight returns the number of in-flight invalidations for block.
func (r *Recorder) Inflight(block int64) int { return r.inflight[block] }

// AckExpect shadows proc gaining n outstanding acknowledgements.
func (r *Recorder) AckExpect(proc, n int) {
	if n > 0 {
		r.acks[proc] += n
	}
}

// AckArrived shadows one acknowledgement arriving at proc; a count going
// negative is a double-ack.
func (r *Recorder) AckArrived(proc int, cycle uint64) {
	r.acks[proc]--
	if r.acks[proc] < 0 {
		r.Violationf(RuleAck, -1, -1, cycle, "proc %d acknowledged more invalidations than were sent", proc)
		r.acks[proc] = 0
	}
}

// Drained cross-checks a release-consistency fence: the machine believes
// proc's acknowledgements have fully drained; the shadow count must agree.
func (r *Recorder) Drained(proc int, cycle uint64) {
	if n := r.acks[proc]; n != 0 {
		r.Violationf(RuleAck, -1, -1, cycle, "fence drained with %d acknowledgements still outstanding for proc %d", n, proc)
		r.acks[proc] = 0
	}
}

// ExtraInval records one extraneous invalidation found by the checker's
// independent pre-scan.
func (r *Recorder) ExtraInval() { r.extra++ }

// OpenTx associates block with a newly opened transaction.
func (r *Recorder) OpenTx(block int64, tx uint64) { r.openTx[block] = tx }

// CloseTx clears block's transaction association if tx is still current.
func (r *Recorder) CloseTx(block int64, tx uint64) {
	if r.openTx[block] == tx {
		delete(r.openTx, block)
	}
}

// TxOf returns the open transaction on block, or 0.
func (r *Recorder) TxOf(block int64) uint64 { return r.openTx[block] }

// Finish runs the end-of-run checks: no invalidation still in flight, no
// acknowledgement lost, the extraneous-invalidation recount matching the
// machine's counter, and no unterminated span trees. extraneous is the
// machine's dir.inval.extraneous counter value; cycle is the final cycle.
func (r *Recorder) Finish(extraneous, cycle uint64) {
	for b, n := range r.inflight {
		r.Violationf(RuleAck, -1, b, cycle, "%d invalidations still in flight at end of run", n)
	}
	for p, n := range r.acks {
		if n > 0 {
			r.Violationf(RuleAck, -1, -1, cycle, "proc %d finished with %d acknowledgements never received (lost ack)", p, n)
		}
	}
	if r.extra != extraneous {
		r.Violationf(RuleAccounting, -1, -1, cycle,
			"dir.inval.extraneous=%d but the checker counted %d", extraneous, r.extra)
	}
	r.finishSpans(cycle)
}
