package machine

import (
	"fmt"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/sim"
)

// Fault selects a deliberate protocol mutation, used by the stress harness
// and the checker's own tests to prove the invariant checks actually fire.
// A fault is injected exactly once per run (the first opportunity), keeps
// the acknowledgement flowing so the machine never deadlocks, and leaves a
// stale cached copy for the checker to find.
type Fault int

const (
	// FaultNone runs the protocol unmodified.
	FaultNone Fault = iota
	// FaultDropInval drops the cache update of the first directed
	// invalidation (ownership grants and write fan-outs), leaving a stale
	// shared or dirty copy behind while the acknowledgement is still sent.
	FaultDropInval
	// FaultSkipRecallInval drops the cache update of the first
	// replacement-recall invalidation (sparse directory evictions), so the
	// victim block stays cached after its directory entry is reused.
	FaultSkipRecallInval
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDropInval:
		return "drop-inval"
	case FaultSkipRecallInval:
		return "skip-recall"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ParseFault parses the -fault flag syntax used by protostress.
func ParseFault(s string) (Fault, error) {
	switch s {
	case "", "none":
		return FaultNone, nil
	case "drop-inval":
		return FaultDropInval, nil
	case "skip-recall":
		return FaultSkipRecallInval, nil
	default:
		return FaultNone, fmt.Errorf("machine: unknown fault %q (want none, drop-inval or skip-recall)", s)
	}
}

// Violations returns the violations the run's invariant checker recorded
// (empty when checking is off; capped at an internal limit —
// ViolationCount reports the true total).
func (m *Machine) Violations() []check.Violation {
	if m.chk == nil {
		return nil
	}
	return m.chk.Violations()
}

// ViolationCount returns the total number of invariant violations recorded.
func (m *Machine) ViolationCount() uint64 {
	if m.chk == nil {
		return 0
	}
	return m.chk.Count()
}

// CheckErr summarizes the run's invariant checking as an error: nil when
// checking is off or clean, otherwise the first sink write error or a
// description of the first violation.
func (m *Machine) CheckErr() error {
	if m.chk == nil {
		return nil
	}
	if err := m.chk.SinkErr(); err != nil {
		return err
	}
	if n := m.chk.Count(); n > 0 {
		v := m.chk.Violations()[0]
		return fmt.Errorf("machine: %d coherence invariant violations (first: %v)", n, v)
	}
	return nil
}

// protoAnomaly reports a Gate/RAC state-machine anomaly at cluster c
// through the checker (the protocol package then panics, so the violation
// record carries the cycle and transaction context the bare panic string
// cannot).
func (m *Machine) protoAnomaly(c *clusterNode, op string, block int64) {
	m.chk.Violationf(check.RuleProtocol, int32(c.id), block, uint64(m.now()), "%s", op)
}

// cycleDelta returns end-start for a latency observation, clamping the
// negative deltas that previously underflowed uint64 (a zero-length or
// misordered phase) to 0 and, when checking is on, recording which counter
// pair went backwards.
func (m *Machine) cycleDelta(end, start sim.Time, what string) uint64 {
	if end < start {
		if m.chk != nil {
			m.chk.Violationf(check.RuleLatency, -1, -1, uint64(end),
				"%s observation ends at t=%d before its start t=%d; clamped to 0", what, end, start)
		}
		return 0
	}
	return uint64(end - start)
}

// applyInval is invalidateCluster for directed invalidations when fault
// injection or checking may be active: it drops the cache update once if
// the configured fault matches (recall tells replacement recalls apart
// from ownership/write-fan-out invalidations), and replays the extraneous
// test independently so Finish can audit dir.inval.extraneous.
func (m *Machine) applyInval(c *clusterNode, b int64, recall bool) {
	if m.cfg.Fault != FaultNone && !m.faultFired {
		want := FaultDropInval
		if recall {
			want = FaultSkipRecallInval
		}
		if m.cfg.Fault == want {
			m.faultFired = true
			return
		}
	}
	if m.chk != nil && m.shadowMiss(c, b) {
		m.chk.ExtraInval()
	}
	m.invalidateCluster(c, b, true)
}

// shadowMiss reports whether a directed invalidation of b at c is about to
// find neither a cached copy nor a pending read — the checker's independent
// recount of invalidateCluster's extraneous-invalidation test. Inclusion
// makes the L2 state authoritative for presence.
func (m *Machine) shadowMiss(c *clusterNode, b int64) bool {
	for _, q := range c.procs {
		if q.h.State(b) != cache.Invalid {
			return false
		}
	}
	if _, ok := c.pendingReads[b]; ok {
		return false
	}
	return true
}

// invalApplied records a directed invalidation arriving at its target
// and re-checks the block (a no-op until the last in-flight invalidation
// for the block has landed).
func (m *Machine) invalApplied(b int64) {
	if m.chk == nil {
		return
	}
	m.chk.InvalApplied(b, uint64(m.now()))
	m.checkBlock(b)
}

// checkBlock asserts block b's steady-state invariants, stamping any
// violation with the current cycle. Blocks with a transaction in flight —
// gated at the home, tracked by the home's RAC, or with directed
// invalidations still traveling — are legitimately in transition and are
// skipped; every transition's settle point calls back here, so the
// assertions still run as soon as the block quiesces.
//
// Two invariant families are checked:
//
//   - Single writer: at most one cache anywhere holds the block Dirty, and
//     a dirty copy excludes every other copy.
//   - Directory coverage: a copy cached outside the home cluster must be
//     recorded at the home directory, either as a sharer or as the dirty
//     owner (imprecise schemes over-record, never under-record), and a
//     remote dirty copy must be recorded as exactly the dirty owner.
//
// The directions left unchecked are the protocol's documented slack: the
// directory may over-record (stale sharer bits for silently dropped clean
// victims, coarse regions, broadcast sets), and home-cluster copies need no
// entry at all.
func (m *Machine) checkBlock(b int64) {
	chk := m.chk
	if chk == nil {
		return
	}
	h := m.clusters[m.home(b)]
	if h.gate.Busy(b) || h.rac.Tracking(b) || chk.Inflight(b) > 0 {
		return
	}
	now := uint64(m.now())
	copies := m.blockCopies(b)
	check.SingleWriter(copies, func(cl int, detail string) {
		chk.Violationf(check.RuleSingleWriter, int32(cl), b, now, "%s", detail)
	})
	if len(copies) == 0 {
		return
	}
	check.Coverage(h.id, copies, m.entryView(h, b), func(cl int, detail string) {
		chk.Violationf(check.RuleCoverage, int32(cl), b, now, "%s", detail)
	})
}

// blockCopies collects every live cached copy of block b into the pure
// view the check predicates consume, reusing a scratch buffer.
func (m *Machine) blockCopies(b int64) []check.Copy {
	m.copyBuf = m.copyBuf[:0]
	for _, p := range m.procs {
		st := p.h.State(b)
		if st == cache.Invalid {
			continue
		}
		cs := check.CopyShared
		if st == cache.Dirty {
			cs = check.CopyDirty
		}
		m.copyBuf = append(m.copyBuf, check.Copy{Proc: p.id, Cluster: p.cl.id, State: cs})
	}
	return m.copyBuf
}

// entryView projects block b's home directory entry into the predicates'
// observable form. It peeks, so building the view never perturbs the run.
func (m *Machine) entryView(h *clusterNode, b int64) check.EntryView {
	e := h.dir.Peek(m.dirKey(b))
	if e == nil {
		return check.EntryView{}
	}
	return check.EntryView{
		Present:  true,
		Dirty:    e.Dirty(),
		Owner:    e.Owner(),
		IsSharer: e.IsSharer,
	}
}

// checkRecallClean asserts that a completed directory-entry recall left no
// orphaned copy of the victim block outside the home cluster: the entry's
// slot was reused and the remaining state discarded, so a surviving remote
// copy nothing tracks is permanently incoherent (§4.2's correctness
// condition for sparse replacement).
//
// Two kinds of surviving copy are legitimate, not orphaned. While the
// recall sat queued behind the block's gate, a replayed request may have
// re-allocated the block into a fresh directory entry and installed a copy
// that entry covers. And under heavy set pressure that fresh entry may
// itself already be reclaimed, so the copy's tracking has moved to a
// second, still-pending recall for the same block (recallsPending).
func (m *Machine) checkRecallClean(h *clusterNode, vb int64) {
	chk := m.chk
	if chk == nil {
		return
	}
	if m.recallsPending[vb] > 0 {
		return
	}
	if chk.Inflight(vb) > 0 {
		// A directed invalidation for the block is still traveling (a
		// write fan-out acknowledged to the requester, not the home, or
		// a fault-delayed retry) and will collect the surviving copy;
		// invalApplied re-checks when the last one lands.
		return
	}
	now := uint64(m.now())
	check.RecallClean(h.id, m.blockCopies(vb), m.entryView(h, vb), func(cl int, detail string) {
		chk.Violationf(check.RuleRecall, int32(cl), vb, now, "%s", detail)
	})
}

// finishChecks runs the end-of-run conservation audits (no invalidation in
// flight, no acknowledgement lost, extraneous-invalidation recount, span
// trees terminated) and a final sweep of every cached block's invariants.
func (m *Machine) finishChecks() {
	if m.chk == nil {
		return
	}
	seen := make(map[int64]bool)
	for _, p := range m.procs {
		p.h.ForEach(func(b int64, _ cache.State) {
			if !seen[b] {
				seen[b] = true
				m.checkBlock(b)
			}
		})
	}
	m.chk.Finish(m.reg.Counter("dir.inval.extraneous").Value(), uint64(m.now()))
}
