package machine

import (
	"fmt"

	"dircoh/internal/cache"
	"dircoh/internal/core"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
)

// Typed events. Every event the machine schedules is a sim.Event value: a
// stage, which names the step to run, and an operand index, which fire
// dispatches on. Processor-side stages take a processor id and read their
// operands from the proc (a processor has one access outstanding, so its
// block, write flag and transaction sit in proc fields until it
// completes). Home-side and per-message stages take the index of a rec,
// carved from the machine's record slab, and the stage that ends the
// chain releases it. Scheduling an event therefore allocates nothing, and
// each event has a (stage, cluster, block) identity a profile or an
// explorer can read.

// stage names one step of the protocol. The zero stage marks a released
// record.
type stage uint32

const (
	stFree stage = iota

	// Processor-side stages: the operand is a processor id.
	stStep        // issue the next reference
	stAck         // an invalidation acknowledgement for the processor's writes
	stBusMiss     // the processor's bus transaction has finished
	stRetry       // an access parked behind an outstanding write retries
	stReadReq     // a ReadReq arrives at the home
	stServeRead   // the home's directory serves a ReadReq
	stWriteReq    // a WriteReq or UpgradeReq arrives at the home
	stServeWrite  // the home's directory serves a WriteReq or UpgradeReq
	stReadDone    // a data reply that reopens no gate arrives
	stLocalRead   // a home-local read replays off the gate
	stLocalWrite  // a home-local write replays off the gate
	stLockReq     // a LockReq arrives at the lock's home
	stLockAcquire // the lock's home serves a LockReq
	stLockGrant   // a LockGrant arrives
	stBarrierReq  // a central-barrier arrival reaches the barrier's home
	stBarrierGo   // a central-barrier release arrives

	// Record stages: the operand is a rec index.
	stWriteback       // a dirty victim's writeback arrives at the home
	stSharingWB       // a sharing writeback arrives at the home
	stLocalFwdRead    // a home-local read's forward arrives at the owner
	stLocalFwdReadBus // the owner's bus has downgraded for it
	stLocalReadReply  // the owner's data reply arrives at the home
	stLocalFwdWrite   // a home-local write's recall arrives at the owner
	stLocalFwdWrBus   // the owner's bus has invalidated for it
	stLocalWriteReply // the owner's ownership reply arrives at the home
	stFwdRead         // a three-cluster read's forward arrives at the owner
	stFwdReadBus      // the owner's bus has downgraded for it
	stFwdWrite        // an ownership transfer's forward arrives at the owner
	stFwdWriteBus     // the owner's bus has invalidated for it
	stReply           // a reply whose home gate reopens after it arrives
	stReopen          // the home gate reopens, keyed right after the reply
	stReplyReopen     // under faults: a reply that also reopens the gate
	stInval           // an invalidation (or recall flush) arrives at its target
	stInvalBus        // the target's bus has applied it
	stInvalAck        // its acknowledgement arrives
	stRecall          // a recall queued on the victim block's gate runs
	stUnlockReq       // an UnlockReq arrives at the lock's home
	stUnlockServe     // the lock's home serves it
	stLockWake        // a LockWake arrives at a waiter's cluster
	stTreeArrive      // a combining-tree barrier arrival reaches the parent
	stTreeRelease     // a combining-tree barrier release reaches a child

	// Envelope stages (fault model only): the operand is a netMsg index.
	stDeliver // one surviving copy of a message arrives
	stTimeout // a message's retransmit timer fires

	// Operand-free stages.
	stNop    // a message whose arrival does nothing (a forwarded read's sharing writeback)
	stSample // the queue-depth sampler

	numStages

	lastProcStage = stBarrierGo
)

var stageNames = [numStages]string{
	stFree: "free", stStep: "step", stAck: "ack", stBusMiss: "busMiss", stRetry: "retry",
	stReadReq: "readReq", stServeRead: "serveRead", stWriteReq: "writeReq", stServeWrite: "serveWrite",
	stReadDone: "readDone", stLocalRead: "localRead", stLocalWrite: "localWrite",
	stLockReq: "lockReq", stLockAcquire: "lockAcquire", stLockGrant: "lockGrant",
	stBarrierReq: "barrierReq", stBarrierGo: "barrierGo",
	stWriteback: "writeback", stSharingWB: "sharingWB",
	stLocalFwdRead: "localFwdRead", stLocalFwdReadBus: "localFwdReadBus", stLocalReadReply: "localReadReply",
	stLocalFwdWrite: "localFwdWrite", stLocalFwdWrBus: "localFwdWriteBus", stLocalWriteReply: "localWriteReply",
	stFwdRead: "fwdRead", stFwdReadBus: "fwdReadBus", stFwdWrite: "fwdWrite", stFwdWriteBus: "fwdWriteBus",
	stReply: "reply", stReopen: "reopen", stReplyReopen: "replyReopen",
	stInval: "inval", stInvalBus: "invalBus", stInvalAck: "invalAck", stRecall: "recall",
	stUnlockReq: "unlockReq", stUnlockServe: "unlockServe", stLockWake: "lockWake",
	stTreeArrive: "treeArrive", stTreeRelease: "treeRelease",
	stDeliver: "deliver", stTimeout: "timeout", stNop: "nop", stSample: "sample",
}

func (s stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint32(s))
}

// procEv is processor-side stage st for p.
func procEv(st stage, p *proc) sim.Event { return sim.Event{Stage: uint32(st), Arg: uint32(p.id)} }

// recEv is stage st on the record (or envelope) with index i.
func recEv(st stage, i uint32) sim.Event { return sim.Event{Stage: uint32(st), Arg: i} }

// rec carries the operands of one home-side or per-message chain of
// events, from the stage that takes it to the stage that releases it.
// Each chain uses the fields it names; the rest stay zero.
type rec struct {
	p      *proc        // the requester the chain serves
	h      *clusterNode // the home (a lock's home; a barrier tree node)
	c      *clusterNode // the cluster visited: owner, invalidation target, writeback sender
	b      int64        // block, or lock or barrier address
	tx     *txState     // the transaction, nil when spans are off
	n      int          // acknowledgements an ownership reply carries
	write  bool         // the reply is an ownership reply, not a data reply
	recall bool         // the invalidation recalls a reclaimed directory entry
	ackTo  *proc        // a write fan-out's acknowledgement target; nil acks the home
	e      core.Entry   // a reclaimed entry whose recall waits on the gate
	ws     []int        // the waiters a LockWake carries
}

// slabChunk is how many records a slab carves at once.
const slabChunk = 256

// slab is a store of event records addressed by index. Records are carved
// in chunks that never move, so a record pointer stays valid while the
// slab grows, and released records are recycled through a free list: a run
// allocates only when its number of live records reaches a new peak.
// Taking, reading and releasing a record name the stage that does it, so
// misuse panics with the stage in the message.
type slab[T any] struct {
	chunks [][]T
	held   []stage // per record: the stage that took it, stFree once released
	free   []uint32
}

// take returns a zeroed record for stage st.
func (s *slab[T]) take(st stage) (uint32, *T) {
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.held))
		if i%slabChunk == 0 {
			s.chunks = append(s.chunks, make([]T, slabChunk))
		}
		s.held = append(s.held, stFree)
	}
	s.held[i] = st
	return i, &s.chunks[i/slabChunk][i%slabChunk]
}

// at returns record i for stage st, which is about to run on it; a
// released record panics.
func (s *slab[T]) at(i uint32, st stage) *T {
	if s.held[i] == stFree {
		panic(fmt.Sprintf("machine: stage %v fired on released record %d", st, i))
	}
	return &s.chunks[i/slabChunk][i%slabChunk]
}

// release returns record i, whose chain stage st ends, to the free list
// and clears it; releasing a record twice panics.
func (s *slab[T]) release(i uint32, st stage) {
	if s.held[i] == stFree {
		panic(fmt.Sprintf("machine: stage %v released record %d twice", st, i))
	}
	s.held[i] = stFree
	var zero T
	s.chunks[i/slabChunk][i%slabChunk] = zero
	s.free = append(s.free, i)
}

// live returns the number of records currently taken.
func (s *slab[T]) live() int { return len(s.held) - len(s.free) }

// fire runs one event: the machine's single dispatch point.
func (m *Machine) fire(ev sim.Event) {
	st := stage(ev.Stage)
	if st <= lastProcStage {
		m.fireProc(st, m.procs[ev.Arg])
		return
	}
	switch st {
	case stDeliver:
		m.deliverMsg(ev.Arg)
	case stTimeout:
		m.timeoutMsg(ev.Arg)
	case stNop:
	case stSample:
		m.sample()
	default:
		m.fireRec(st, ev.Arg, m.recs.at(ev.Arg, st))
	}
}

// fireProc runs processor-side stage st for p.
func (m *Machine) fireProc(st stage, p *proc) {
	switch st {
	case stStep:
		m.stepProc(p)
	case stAck:
		m.ackArrived(p)
	case stBusMiss:
		m.busMiss(p, p.opWrite, p.block, p.upgrade)
	case stRetry:
		m.accessBlock(p, p.opWrite, p.block)
	case stReadReq:
		m.remoteReadAtHome(p)
	case stServeRead:
		m.serveRemoteRead(p)
	case stWriteReq:
		m.remoteWriteAtHome(p)
	case stServeWrite:
		m.serveRemoteWrite(p)
	case stReadDone:
		m.remoteReadDone(p, p.block, p.tx)
	case stLocalRead:
		m.homeLocalRead(p, p.block)
	case stLocalWrite:
		m.homeLocalWrite(p, p.block)
	case stLockReq:
		m.lockReqAtHome(p)
	case stLockAcquire:
		m.lockAcquireAtHome(p)
	case stLockGrant:
		m.lockGranted(p)
	case stBarrierReq:
		m.centralBarrierAtHome(p)
	case stBarrierGo:
		m.complete(p, m.now()+m.t.Hit)
	default:
		panic(fmt.Sprintf("machine: no processor stage %v", st))
	}
}

// fireRec runs record stage st on record i.
func (m *Machine) fireRec(st stage, i uint32, r *rec) {
	switch st {
	case stWriteback:
		m.writebackAtHome(r)
	case stSharingWB:
		m.sharingWBAtHome(r)
	case stLocalFwdRead:
		m.at(r.c, m.busOp(r.c, m.t.Fwd), recEv(stLocalFwdReadBus, i))
		return
	case stLocalFwdReadBus:
		for _, q := range r.c.procs {
			q.h.Downgrade(r.b)
		}
		m.send(protocol.DataReply, r.c.id, r.h.id, recEv(stLocalReadReply, i))
		return
	case stLocalReadReply:
		m.fill(r.p, r.b, cache.Shared)
		m.complete(r.p, m.now()+m.t.Fill)
		m.reopen(r.h, r.b)
	case stLocalFwdWrite:
		m.at(r.c, m.busOp(r.c, m.t.InvalBus), recEv(stLocalFwdWrBus, i))
		return
	case stLocalFwdWrBus:
		m.applyInval(r.c, r.b, false)
		m.send(protocol.OwnershipReply, r.c.id, r.h.id, recEv(stLocalWriteReply, i))
		return
	case stLocalWriteReply:
		m.fill(r.p, r.b, cache.Dirty)
		m.complete(r.p, m.now()+m.t.Fill)
		m.reopen(r.h, r.b)
	case stFwdRead:
		m.at(r.c, m.busOp(r.c, m.t.Fwd), recEv(stFwdReadBus, i))
		return
	case stFwdReadBus:
		m.fwdReadAtOwner(i, r)
		return
	case stFwdWrite:
		m.at(r.c, m.busOp(r.c, m.t.InvalBus), recEv(stFwdWriteBus, i))
		return
	case stFwdWriteBus:
		m.applyInval(r.c, r.b, false)
		m.txPhase(r.c, r.tx, obs.PhFanout)
		m.sendReply(protocol.OwnershipReply, r.c, i, r)
		return
	case stReply:
		m.replyArrived(r)
		return // stReopen, keyed right after, releases the record
	case stReopen:
		m.reopen(r.h, r.b)
	case stReplyReopen:
		m.replyArrived(r)
		m.reopen(r.h, r.b)
	case stInval:
		m.at(r.c, m.busOp(r.c, m.t.InvalBus), recEv(stInvalBus, i))
		return
	case stInvalBus:
		m.invalAtTarget(i, r)
		return
	case stInvalAck:
		m.invalAcked(r)
	case stRecall:
		m.sendReplacementInvals(r.h, r.b, r.e)
	case stUnlockReq:
		m.at(r.h, m.dirOp(r.h, m.t.Dir), recEv(stUnlockServe, i))
		return
	case stUnlockServe:
		m.handleGrant(r.b, r.h.id, r.h.locks.Release(r.b))
	case stLockWake:
		m.retryWaiters(r.b, r.ws)
	case stTreeArrive:
		m.treeArrive(r.h.id, r.b)
	case stTreeRelease:
		m.treeRelease(r.h.id, r.b)
	default:
		panic(fmt.Sprintf("machine: no record stage %v", st))
	}
	m.recs.release(i, st)
}
