package check

import "fmt"

// This file holds the invariant predicates as pure functions over a
// minimal, machine-independent view of one block's globally visible state.
// The runtime oracle (internal/machine) and the exhaustive model checker
// (internal/model) both call them, so a rule tightened for one is
// automatically tightened for the other, and the predicates get direct
// table-driven unit tests instead of being reachable only through full
// machine runs.

// CopyState is the MSI state of one cached copy as the predicates see it.
// The String forms match cache.State so violation messages are identical
// whichever layer built the view.
type CopyState uint8

const (
	// CopyInvalid means no copy (never appears in a Copy slice; it exists
	// so CopyState zero-values are explicit).
	CopyInvalid CopyState = iota
	// CopyShared is a clean copy.
	CopyShared
	// CopyDirty is the (supposedly unique) modified copy.
	CopyDirty
)

func (s CopyState) String() string {
	switch s {
	case CopyInvalid:
		return "I"
	case CopyShared:
		return "S"
	case CopyDirty:
		return "D"
	default:
		return fmt.Sprintf("CopyState(%d)", uint8(s))
	}
}

// Copy is one live cached copy of the block under test: which processor
// holds it, which cluster that processor belongs to, and the MSI state.
// Invalid lines are omitted from the slice, not listed.
type Copy struct {
	Proc    int
	Cluster int
	State   CopyState
}

// EntryView is the observable state of the block's home directory entry.
// Present false means the home has no entry at all (nil Sharers is then
// allowed).
type EntryView struct {
	Present bool
	Dirty   bool
	Owner   int
	Sharers SharerSet
}

// SharerSet reports candidate-set membership for a cluster. A directory
// entry (core.Entry) is one, so a view of it is built without allocating.
type SharerSet interface {
	IsSharer(cluster int) bool
}

// Emit receives one violation: the offending cluster (-1 when
// machine-wide) and the human-readable detail.
type Emit func(cluster int, detail string)

// SingleWriter asserts the single-writer/multiple-reader invariant over
// the block's copies: at most one cache holds the block dirty, and a dirty
// copy excludes every other copy.
func SingleWriter(copies []Copy, emit Emit) {
	dirty, dirtyCl := -1, -1
	for _, c := range copies {
		if c.State != CopyDirty {
			continue
		}
		if dirty >= 0 {
			emit(c.Cluster, fmt.Sprintf("block dirty in procs %d and %d at once", dirty, c.Proc))
		}
		dirty, dirtyCl = c.Proc, c.Cluster
	}
	if dirty >= 0 && len(copies) > 1 {
		emit(dirtyCl, fmt.Sprintf("proc %d holds the block dirty while %d other caches keep copies",
			dirty, len(copies)-1))
	}
}

// Coverage asserts directory-entry/cache-state agreement: every copy
// cached outside the home cluster must be covered by the home entry —
// recorded as a candidate sharer or as the dirty owner — and a remote
// dirty copy must be recorded as exactly the dirty owner. Home-cluster
// copies need no entry, and over-recording (stale sharer bits, coarse
// regions, broadcast sets) is the protocol's documented slack, so only
// under-recording is flagged.
func Coverage(home int, copies []Copy, e EntryView, emit Emit) {
	for _, c := range copies {
		if c.Cluster == home {
			continue
		}
		if !e.Present {
			emit(c.Cluster, fmt.Sprintf("proc %d (cluster %d) caches the block but the home directory has no entry",
				c.Proc, c.Cluster))
			continue
		}
		if !e.Sharers.IsSharer(c.Cluster) && !(e.Dirty && e.Owner == c.Cluster) {
			emit(c.Cluster, fmt.Sprintf("proc %d (cluster %d) caches the block but is neither a recorded sharer nor the dirty owner",
				c.Proc, c.Cluster))
		}
		if c.State == CopyDirty && !(e.Dirty && e.Owner == c.Cluster) {
			emit(c.Cluster, fmt.Sprintf("proc %d holds the block dirty but the directory does not record cluster %d as owner",
				c.Proc, c.Cluster))
		}
	}
}

// RecallClean asserts sparse-recall completeness at the moment a
// replacement recall's last acknowledgement arrives: no cluster outside
// the home may still cache the victim block, unless the copy is covered by
// the current entry (the block was re-allocated behind the recall's back
// by a request replayed off the gate). Callers are responsible for the
// still-pending-overlapping-recall and invalidation-in-flight exemptions,
// which depend on bookkeeping the pure view does not carry.
func RecallClean(home int, copies []Copy, e EntryView, emit Emit) {
	for _, c := range copies {
		if c.Cluster == home {
			continue
		}
		if e.Present && (e.Sharers.IsSharer(c.Cluster) || (e.Dirty && e.Owner == c.Cluster)) {
			continue
		}
		emit(c.Cluster, fmt.Sprintf("replacement recall completed but proc %d (cluster %d) still caches the victim (%v) with no covering entry or pending recall",
			c.Proc, c.Cluster, c.State))
	}
}
