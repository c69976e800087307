package obs

import (
	"fmt"
	"strings"
)

// EventKind classifies one coherence-protocol trace event.
type EventKind uint8

const (
	// EvReqIssue marks a cache sending a remote request; Arg is the
	// protocol message kind (protocol.MsgKind numbering).
	EvReqIssue EventKind = iota
	// EvDirLookup marks the home directory controller starting to serve
	// a remote request for Block; Arg is 0 for a read, 1 for a write.
	EvDirLookup
	// EvInvalFanout marks an invalidation burst for Block; Arg is the
	// number of clusters invalidated.
	EvInvalFanout
	// EvOverflow marks an imprecise directory action: an invalidation
	// burst sent from an overflowed (coarse/broadcast/superset) entry;
	// Arg is the number of clusters the imprecise burst invalidated.
	EvOverflow
	// EvDirEvict marks a sparse-directory replacement recalling Block;
	// Arg is the number of invalidations the recall sent.
	EvDirEvict
	// EvRetry marks a NAK-style retry (a woken lock waiter re-contending);
	// Block is the lock address.
	EvRetry

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"req.issue", "dir.lookup", "inval.fanout", "dir.overflow", "dir.evict", "lock.retry",
}

func (k EventKind) String() string {
	if k >= numEventKinds {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindNames[k]
}

// unknownNameMessage renders the registry-style unknown-name message shared
// by the package's typed parse errors (matching core.UnknownSchemeError and
// apps.UnknownAppError).
func unknownNameMessage(what, name string, valid []string) string {
	return fmt.Sprintf("unknown %s %q (want one of %s)", what, name, strings.Join(valid, ", "))
}

// UnknownEventKindError reports an event-kind name that ParseEventKind does
// not recognize. Valid lists the accepted names so flag and file errors can
// enumerate the choices.
type UnknownEventKindError struct {
	Name  string
	Valid []string
}

func (e *UnknownEventKindError) Error() string {
	return unknownNameMessage("event kind", e.Name, e.Valid)
}

// EventKindNames returns every event-kind name, in kind order.
func EventKindNames() []string {
	return append([]string(nil), eventKindNames[:]...)
}

// ParseEventKind resolves an event-kind name as rendered by String.
// Unknown names return *UnknownEventKindError.
func ParseEventKind(name string) (EventKind, error) {
	for i, n := range eventKindNames {
		if n == name {
			return EventKind(i), nil
		}
	}
	return 0, &UnknownEventKindError{Name: name, Valid: eventKindNames[:]}
}

// Event is one structured trace record.
type Event struct {
	T     uint64 // simulation cycle
	Node  int32  // cluster where the event happened
	Kind  EventKind
	Block int64 // block number (or lock address for EvRetry)
	Arg   int64 // kind-specific payload, see the EventKind docs
}
