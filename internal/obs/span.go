package obs

import "fmt"

// TxClass classifies one remote memory transaction for latency accounting.
type TxClass uint8

const (
	// TxRead is a remote read miss (ReadReq round trip).
	TxRead TxClass = iota
	// TxWrite is a remote write miss (WriteReq round trip).
	TxWrite
	// TxUpgrade is a remote ownership upgrade (UpgradeReq round trip).
	TxUpgrade
	// TxLock is one remote lock-acquisition round: issue until the grant
	// arrives, or until a wake message tells the waiter to retry (the
	// retry is a new transaction; lock.retry events link the rounds).
	TxLock
	// TxEvict is a sparse-directory replacement recall: the home
	// invalidates the victim block's cached copies and gates requests
	// until every acknowledgement returns.
	TxEvict

	numTxClasses
)

// NumTxClasses is the number of transaction classes; classes are the
// contiguous range [0, NumTxClasses), so callers can build per-class tables.
const NumTxClasses = int(numTxClasses)

var txClassNames = [numTxClasses]string{"read", "write", "upgrade", "lock", "evict"}

func (c TxClass) String() string {
	if c >= numTxClasses {
		return fmt.Sprintf("TxClass(%d)", int(c))
	}
	return txClassNames[c]
}

// UnknownTxClassError reports a transaction-class name that ParseTxClass
// does not recognize. Valid lists the accepted names.
type UnknownTxClassError struct {
	Name  string
	Valid []string
}

func (e *UnknownTxClassError) Error() string {
	return unknownNameMessage("transaction class", e.Name, e.Valid)
}

// ParseTxClass resolves a class name as rendered by String. Unknown names
// return *UnknownTxClassError.
func ParseTxClass(name string) (TxClass, error) {
	for i, n := range txClassNames {
		if n == name {
			return TxClass(i), nil
		}
	}
	return 0, &UnknownTxClassError{Name: name, Valid: txClassNames[:]}
}

// Phase names one segment of a transaction's lifetime.
type Phase uint8

const (
	// PhTotal marks a transaction's root span, covering issue to
	// completion.
	PhTotal Phase = iota
	// PhReqTravel is the request's network transit to the home cluster.
	PhReqTravel
	// PhDirWait is time spent at the home directory: controller queueing,
	// per-block gate waits, and the lookup/allocate service itself. For
	// locks it also covers time queued waiting for the holder to release.
	PhDirWait
	// PhFanout is the forwarded leg on the critical path: the home's
	// forward to a dirty owner plus the owner's bus work, up to the
	// moment the owner sends its reply.
	PhFanout
	// PhAckGather covers invalidation dispatch until the last
	// acknowledgement arrives. For read/write/upgrade transactions the
	// acks drain asynchronously under release consistency, so this phase
	// overlaps the reply; for evictions it is the critical path.
	PhAckGather
	// PhReplyTravel is the reply's network transit back to the requester.
	PhReplyTravel
	// PhRecovery marks one delivery-recovery episode under the fault
	// model: a message of the transaction timed out and was re-sent, and
	// the span covers from the lost attempt's injection to the retry.
	// Recovery spans are always asynchronous — retries for different
	// messages of one transaction overlap its other phases freely — and
	// exist only when network fault injection is enabled.
	PhRecovery

	numPhases
)

// NumPhases is the number of span phases; phases are the contiguous range
// [0, NumPhases).
const NumPhases = int(numPhases)

var phaseNames = [numPhases]string{
	"total", "req.travel", "dir.wait", "fanout", "ack.gather", "reply.travel",
	"net.recovery",
}

func (p Phase) String() string {
	if p >= numPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// UnknownPhaseError reports a phase name that ParsePhase does not
// recognize. Valid lists the accepted names.
type UnknownPhaseError struct {
	Name  string
	Valid []string
}

func (e *UnknownPhaseError) Error() string {
	return unknownNameMessage("span phase", e.Name, e.Valid)
}

// ParsePhase resolves a phase name as rendered by String. Unknown names
// return *UnknownPhaseError.
func ParsePhase(name string) (Phase, error) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), nil
		}
	}
	return 0, &UnknownPhaseError{Name: name, Valid: phaseNames[:]}
}

// Async reports whether the phase overlaps the parent span instead of
// tiling it: acknowledgement gathering runs concurrently with the reply for
// every class except evictions, where the recall is not complete (and the
// block stays gated) until the last ack arrives, and recovery episodes
// overlap whatever phase the lost message belonged to. Analyzers use this
// to decide which child spans must partition the root exactly.
func (p Phase) Async(c TxClass) bool {
	return p == PhRecovery || (p == PhAckGather && c != TxEvict)
}

// Span is one timed segment of a transaction. The root span (Parent == 0,
// Phase == PhTotal) covers the whole transaction; child spans carry the
// root's ID in Parent and the transaction's ID in Tx. The synchronous
// children of a root partition [Start, End] exactly, in emission order;
// asynchronous children (see Phase.Async) may extend past the root's End.
type Span struct {
	Tx     uint64  // transaction ID (equals the root span's ID)
	ID     uint64  // unique span ID within one recorder's lifetime
	Parent uint64  // parent span ID; 0 marks a root
	Class  TxClass // transaction class, repeated on every child
	Phase  Phase   // PhTotal for roots
	Node   int32   // requesting cluster (home cluster for evictions)
	Block  int64   // block number (lock address for TxLock)
	Start  uint64  // simulation cycle the segment began
	End    uint64  // simulation cycle the segment ended
	N      int64   // fan-out count for fanout/ack spans and roots; else 0
}

// Duration returns End - Start.
func (s Span) Duration() uint64 { return s.End - s.Start }
