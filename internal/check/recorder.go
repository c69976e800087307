package check

import (
	"cmp"
	"fmt"
	"slices"

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

	// blocks holds one shadow record per block the checker has tracked
	// (see Block): its in-flight invalidations, open transaction, pending
	// recalls and holder set.
	blocks blockTable

	// acks shadows each processor's outstanding invalidation
	// acknowledgements, indexed by processor, maintained independently
	// from the machine's own count so the two can be cross-checked at
	// fences and at the end of the run.
	acks []int

	// extra is the checker's independent recount of extraneous
	// invalidations (directed invalidations that found no copy), compared
	// against the dir.inval.extraneous counter when the run finishes.
	extra uint64

	// live lists the span trees still owed spans, and retired keeps
	// copies of the incomplete trees whose records were released (see
	// TxSpans), so Finish can report both.
	live    []*TxSpans
	retired []TxSpans
}

// NewRecorder returns a recorder for a machine of procs processors,
// registering its violation counters in reg (nil creates a private
// registry) and writing records to sink (nil counts violations without
// writing records).
func NewRecorder(reg *obs.Registry, sink Sink, procs int) *Recorder {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Recorder{sink: sink, acks: make([]int, procs)}
	r.blocks.width = (procs + 63) / 64
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
		Rule: rule, Tx: r.blocks.find(block).Tx(), Block: block, Node: node,
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

// Block returns block's shadow record, or nil when the checker has not
// tracked the block (no invalidation, transaction, recall or cached copy
// ever named it).
func (r *Recorder) Block(block int64) *Block { return r.blocks.find(block) }

// InvalSent records n invalidations dispatched for block.
func (r *Recorder) InvalSent(block int64, n int) {
	if n > 0 {
		r.blocks.get(block).inflight += int32(n)
	}
}

// InvalApplied records one invalidation arriving (and being applied, or
// deliberately dropped by fault injection) at its target for block.
func (r *Recorder) InvalApplied(block int64, cycle uint64) {
	s := r.blocks.find(block)
	if s.Inflight() <= 0 {
		r.Violationf(RuleAck, -1, block, cycle, "invalidation applied with none in flight")
		return
	}
	s.inflight--
}

// RecallPending adjusts block's count of replacement recalls queued or in
// flight by d (never below zero). A block whose directory entry is
// reclaimed, re-allocated by a request replayed off the gate, and
// reclaimed again can owe two recalls at once; the first to complete must
// not be blamed for copies the second snapshotted and will invalidate.
func (r *Recorder) RecallPending(block int64, d int) {
	s := r.blocks.get(block)
	s.recalls = max(s.recalls+int32(d), 0)
}

// Cached records that processor proc's L2 now holds block. The machine
// calls it wherever an L2 gains a block, so the holder set always equals
// the caches' contents.
func (r *Recorder) Cached(proc int, block int64) {
	r.blocks.get(block).hold[proc>>6] |= 1 << (proc & 63)
}

// Uncached records that processor proc's L2 no longer holds block (an
// invalidation or a replacement took it).
func (r *Recorder) Uncached(proc int, block int64) {
	if s := r.blocks.find(block); s != nil {
		s.hold[proc>>6] &^= 1 << (proc & 63)
	}
}

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

// OpenTx associates block with a newly opened transaction, giving
// violations best-effort transaction context (concurrent transactions on
// one block — e.g. two read misses from different clusters — keep only
// the latest).
func (r *Recorder) OpenTx(block int64, tx uint64) { r.blocks.get(block).tx = tx }

// CloseTx clears block's transaction association if tx is still current.
func (r *Recorder) CloseTx(block int64, tx uint64) {
	if s := r.blocks.find(block); s != nil && s.tx == tx {
		s.tx = 0
	}
}

// Finish runs the end-of-run checks: no invalidation still in flight, no
// acknowledgement lost, the extraneous-invalidation recount matching the
// machine's counter, and no unterminated span trees. extraneous is the
// machine's dir.inval.extraneous counter value; cycle is the final cycle.
// Each kind of leftover is reported in ascending block, processor and
// transaction order, so a failing run's report is the same every time.
func (r *Recorder) Finish(extraneous, cycle uint64) {
	var pending []*Block
	for _, s := range r.blocks.slots {
		if s != nil && s.inflight > 0 {
			pending = append(pending, s)
		}
	}
	slices.SortFunc(pending, func(a, b *Block) int { return cmp.Compare(a.id, b.id) })
	for _, s := range pending {
		r.Violationf(RuleAck, -1, s.id, cycle, "%d invalidations still in flight at end of run", s.inflight)
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
