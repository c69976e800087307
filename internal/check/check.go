// Package check is the runtime coherence oracle: an opt-in shadow of the
// simulated machine that asserts protocol invariants at every state
// transition instead of only at quiescence. The machine drives a Recorder
// with shadow bookkeeping (in-flight invalidations, outstanding
// acknowledgements, span trees) and reports each broken invariant as a
// structured Violation — counted under check.violation.* in the metrics
// registry and, when a Sink is attached, written as a JSONL record
// composable with the event-trace and span streams.
//
// The package deliberately knows nothing about the machine: it holds only
// the generic invariant state, so it stays always-compilable and testable
// on its own.
package check

import (
	"fmt"
	"io"
	"sync"

	"dircoh/internal/obs"
)

// Rule identifies one checked invariant class.
type Rule uint8

const (
	// RuleSingleWriter is single-writer/multiple-reader: a block is dirty
	// in at most one cache machine-wide, and a dirty copy excludes every
	// other copy.
	RuleSingleWriter Rule = iota
	// RuleCoverage is directory-entry/cache-state agreement: every actual
	// cacher outside the home cluster is covered by the home entry's
	// candidate sharer set (or recorded as the dirty owner).
	RuleCoverage
	// RuleRecall is sparse-recall completeness: when a reclaimed entry's
	// invalidations have all been acknowledged, no cluster outside the
	// home may still cache the victim block — unless the block was
	// re-allocated behind the recall's back, in which case the copy must
	// be covered by the current entry or by a still-pending later recall.
	RuleRecall
	// RuleAck is acknowledgement conservation: no double-ack, no lost
	// ack, and a drained fence sees exactly zero outstanding
	// acknowledgements.
	RuleAck
	// RuleProtocol is a Gate/RAC state-machine anomaly (ack on an
	// untracked block, unlock of a non-busy block, a double fence).
	RuleProtocol
	// RuleSpan is span-tree consistency: a transaction's synchronous
	// child spans must tile its root exactly, and every child needs a
	// root.
	RuleSpan
	// RuleAccounting is metric cross-checking: the checker's independent
	// extraneous-invalidation count must match dir.inval.extraneous.
	RuleAccounting
	// RuleLatency is cycle-delta sanity: a latency observation whose end
	// precedes its start (uint64 underflow on a tx.lat.* or read/write
	// latency pair).
	RuleLatency
	// RuleLiveness is forward progress: the liveness watchdog found a
	// processor stuck beyond its cycle budget (a transaction the recovery
	// machinery could not complete), or a run's event queue drained with
	// work remaining.
	RuleLiveness

	numRules
)

// NumRules is the number of invariant classes; rules are the contiguous
// range [0, NumRules).
const NumRules = int(numRules)

var ruleNames = [numRules]string{
	"single.writer", "dir.coverage", "recall", "ack",
	"protocol", "span.tiling", "accounting", "latency", "liveness",
}

func (r Rule) String() string {
	if r >= numRules {
		return fmt.Sprintf("Rule(%d)", int(r))
	}
	return ruleNames[r]
}

// MetricName returns the registry counter name for the rule,
// "check.violation.<rule>".
func (r Rule) MetricName() string { return "check.violation." + r.String() }

// Violation is one broken invariant, carrying enough transaction context
// to debug it: the offending rule, the open transaction on the block (0
// when none or unknown), the block and cluster, the simulation cycle, and
// a human-readable description of the offending transition.
type Violation struct {
	Rule   Rule
	Tx     uint64 // open transaction ID on the block, 0 if none
	Block  int64  // block number (or lock address), -1 when not block-scoped
	Node   int32  // offending cluster, -1 when machine-wide
	Cycle  uint64 // simulation cycle the violation was detected
	Detail string // the offending transition
}

// Error renders the violation as a one-line message, so a Violation can
// travel inside an error or a panic without losing context.
func (v Violation) Error() string {
	return fmt.Sprintf("check: %s violation at t=%d node=%d block=%d tx=%d: %s",
		v.Rule, v.Cycle, v.Node, v.Block, v.Tx, v.Detail)
}

// Sink consumes violation records. Implementations shared by concurrent
// recorders must serialize WriteViolation internally.
type Sink interface {
	WriteViolation(v Violation) error
}

// LineWriter is the single-line output contract the JSONL sink writes
// through; obs.JSONLSink implements it, so violation records interleave
// with event and span lines in one file under one lock.
type LineWriter interface {
	WriteLine(line string) error
}

// jsonlSink encodes each violation as one JSON object per line:
//
//	{"run":"LU/Dir32","check":"dir.coverage","t":412,"node":3,"block":97,"tx":12,"detail":"..."}
type jsonlSink struct {
	w   LineWriter
	run string // the encoded `"run":<label>,` member; "" omits it
}

// NewJSONLSink returns a sink writing one JSON object per violation
// through w, tagged with the given run label (empty omits the field).
func NewJSONLSink(w LineWriter, run string) Sink {
	s := &jsonlSink{w: w}
	if run != "" {
		s.run = `"run":` + obs.JSONString(run) + ","
	}
	return s
}

// WriteViolation encodes the detail as JSON; rule names are fixed
// identifiers, so they are quoted as they are.
func (s *jsonlSink) WriteViolation(v Violation) error {
	return s.w.WriteLine(fmt.Sprintf(`{%s"check":"%s","t":%d,"node":%d,"block":%d,"tx":%d,"detail":%s}`,
		s.run, v.Rule, v.Cycle, v.Node, v.Block, v.Tx, obs.JSONString(v.Detail)))
}

// writerSink writes one line per violation straight to an io.Writer
// (unbuffered, so records survive an imminent abort), serialized for
// concurrent recorders.
type writerSink struct {
	mu  sync.Mutex
	w   io.Writer
	run string
}

// NewWriterSink returns a sink printing violations to w, one line each,
// prefixed with the run label when non-empty. It is the stderr default
// when -check is given without -check-out.
func NewWriterSink(w io.Writer, run string) Sink {
	return &writerSink{w: w, run: run}
}

func (s *writerSink) WriteViolation(v Violation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run != "" {
		_, err := fmt.Fprintf(s.w, "%s: %s\n", s.run, v.Error())
		return err
	}
	_, err := fmt.Fprintln(s.w, v.Error())
	return err
}

// MemSink collects violations in memory, for tests.
type MemSink struct {
	mu         sync.Mutex
	Violations []Violation
}

// WriteViolation implements Sink.
func (s *MemSink) WriteViolation(v Violation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Violations = append(s.Violations, v)
	return nil
}
