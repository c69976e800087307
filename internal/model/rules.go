package model

import (
	"fmt"
	"math/bits"

	"dircoh/internal/check"
	"dircoh/internal/protocol"
	"dircoh/internal/sparse"
)

// Message kinds the model uses, as compact bytes. The values are
// protocol.MsgKind, so traces print the real wire names.
const (
	kReadReq        = uint8(protocol.ReadReq)
	kWriteReq       = uint8(protocol.WriteReq)
	kUpgradeReq     = uint8(protocol.UpgradeReq)
	kWritebackReq   = uint8(protocol.WritebackReq)
	kSharingWB      = uint8(protocol.SharingWB)
	kFwdReadReq     = uint8(protocol.FwdReadReq)
	kFwdWriteReq    = uint8(protocol.FwdWriteReq)
	kDataReply      = uint8(protocol.DataReply)
	kOwnershipReply = uint8(protocol.OwnershipReply)
	kInval          = uint8(protocol.Inval)
	kFlush          = uint8(protocol.Flush)
	kAckMsg         = uint8(protocol.AckMsg)
)

// violation is one invariant breach found while applying or checking a
// transition.
type violation struct {
	rule    check.Rule
	cluster int
	block   int
	detail  string
}

func (v violation) String() string {
	return fmt.Sprintf("%s violation at c%d b%d: %s", v.rule, v.cluster, v.block, v.detail)
}

// applier mutates one state through the transition rules, collecting any
// violations the rules themselves detect (protocol anomalies, ack
// underflow, incomplete recalls). Each rule is a transliteration of the
// corresponding internal/machine handler; comments name the original.
type applier struct {
	m    *Model
	s    *state
	viol []violation
}

func (a *applier) emit(rule check.Rule, cluster, block int, detail string) {
	a.viol = append(a.viol, violation{rule, cluster, block, detail})
}

func (a *applier) cacheAt(c, b int) uint8     { return a.s.cache[c*a.m.nb+b] }
func (a *applier) setCache(c, b int, v uint8) { a.s.cache[c*a.m.nb+b] = v }

func (a *applier) send(kind uint8, from, to, b, req int, flavor uint8) {
	a.s.msgs = append(a.s.msgs, msg{kind: kind, from: int8(from), to: int8(to),
		block: int8(b), req: int8(req), flavor: flavor})
}

// inflight counts in-flight messages touching block b, mirroring the
// runtime checker's Inflight gate on invariant evaluation.
func (a *applier) inflight(b int) int {
	n := 0
	for _, g := range a.s.msgs {
		if int(g.block) == b {
			n++
		}
	}
	return n
}

// --- directory (machine: sparse.Sparse / the full-map path) ---

func (a *applier) dirPeek(b int) *dirEntry {
	if a.m.sets == 0 {
		if a.s.present[b] {
			return &a.s.ent[b]
		}
		return nil
	}
	set := a.dirSet(b)
	for i := range set {
		if set[i].valid && int(set[i].key) == a.m.dirKey(b) {
			return &set[i].ent
		}
	}
	return nil
}

// dirSet returns the home set of ways holding block b's key.
func (a *applier) dirSet(b int) []dline {
	h, key := a.m.home(b), a.m.dirKey(b)
	base := (h*a.m.sets + sparse.SetIndex(int64(key), a.m.sets)) * a.m.assoc
	return a.s.lines[base : base+a.m.assoc]
}

// touch promotes way i of set to most-recent among its valid lines.
func touch(set []dline, i int) {
	v := uint8(0)
	for j := range set {
		if set[j].valid {
			v++
		}
	}
	r := set[i].rank
	for j := range set {
		if set[j].valid && set[j].rank > r {
			set[j].rank--
		}
	}
	set[i].rank = v - 1
}

func (a *applier) dirLookup(b int) *dirEntry {
	if a.m.sets == 0 {
		return a.dirPeek(b)
	}
	set := a.dirSet(b)
	for i := range set {
		if set[i].valid && int(set[i].key) == a.m.dirKey(b) {
			touch(set, i)
			return &set[i].ent
		}
	}
	return nil
}

// dirAllocate mirrors sparse.Sparse.Allocate: hit touches, a free way
// installs, otherwise the LRU way is recalled and reused in place. The
// caller must run replaceEntry for the victim before serving.
func (a *applier) dirAllocate(b int) (e *dirEntry, vb int, ve dirEntry, hadVictim bool) {
	if a.m.sets == 0 {
		if !a.s.present[b] {
			a.s.present[b] = true
			a.s.ent[b] = emptyEntry()
		}
		return &a.s.ent[b], 0, dirEntry{}, false
	}
	h, key := a.m.home(b), a.m.dirKey(b)
	set := a.dirSet(b)
	for i := range set {
		if set[i].valid && int(set[i].key) == key {
			touch(set, i)
			return &set[i].ent, 0, dirEntry{}, false
		}
	}
	for i := range set {
		if !set[i].valid {
			v := uint8(0)
			for j := range set {
				if set[j].valid {
					v++
				}
			}
			set[i] = dline{valid: true, key: int8(key), rank: v, ent: emptyEntry()}
			return &set[i].ent, 0, dirEntry{}, false
		}
	}
	i := sparse.PickVictimIndex(len(set), func(j int) uint64 { return uint64(set[j].rank) })
	vb, ve = a.m.keyBlock(int(set[i].key), h), set[i].ent
	r := set[i].rank
	for j := range set {
		if set[j].rank > r {
			set[j].rank--
		}
	}
	set[i] = dline{valid: true, key: int8(key), rank: uint8(len(set) - 1), ent: emptyEntry()}
	return &set[i].ent, vb, ve, true
}

func (a *applier) dirRelease(b int) {
	if a.m.sets == 0 {
		a.s.present[b] = false
		a.s.ent[b] = emptyEntry()
		return
	}
	set := a.dirSet(b)
	for i := range set {
		if set[i].valid && int(set[i].key) == a.m.dirKey(b) {
			r := set[i].rank
			for j := range set {
				if set[j].valid && set[j].rank > r {
					set[j].rank--
				}
			}
			set[i] = dline{ent: emptyEntry()}
			return
		}
	}
}

// --- gate and RAC (machine: gate.Gate, rac tracking) ---

func (a *applier) gateLock(b int) {
	if a.s.gate[b] {
		a.emit(check.RuleProtocol, a.m.home(b), b, "gate locked while already busy")
		return
	}
	a.s.gate[b] = true
}

func (a *applier) gateUnlock(b int) {
	if !a.s.gate[b] {
		a.emit(check.RuleProtocol, a.m.home(b), b, "gate unlocked while not busy")
		return
	}
	a.s.gate[b] = false
	h := a.m.home(b)
	for !a.s.gate[b] && len(a.s.gateQ[b]) > 0 {
		it := a.s.gateQ[b][0]
		a.s.gateQ[b] = append([]qItem(nil), a.s.gateQ[b][1:]...)
		if len(a.s.gateQ[b]) == 0 {
			a.s.gateQ[b] = nil
		}
		switch it.kind {
		case qRead:
			a.serveRead(h, int(it.from), b)
		case qWrite:
			a.serveWrite(h, int(it.from), b)
		case qLocalRead:
			a.homeLocalRead(h, b)
		case qLocalWrite:
			a.homeLocalWrite(h, b)
		case qRecall:
			a.sendReplacementInvals(h, b, it.ve)
		}
	}
}

func (a *applier) racStart(b, n int) {
	if a.s.rac[b] != 0 {
		a.emit(check.RuleProtocol, a.m.home(b), b, "recall started while RAC already tracking the block")
	}
	a.s.rac[b] = uint8(n)
}

// racAck mirrors Machine.racAck.
func (a *applier) racAck(b int) {
	h := a.m.home(b)
	if a.s.rac[b] == 0 {
		a.emit(check.RuleProtocol, h, b, "recall ack on untracked block")
		return
	}
	a.s.rac[b]--
	if a.s.rac[b] > 0 {
		return
	}
	if a.s.recalls[b] > 0 {
		a.s.recalls[b]--
	}
	if a.s.recalls[b] == 0 && a.inflight(b) == 0 {
		check.RecallClean(h, a.blockCopies(b), a.entryView(b), func(cl int, detail string) {
			a.emit(check.RuleRecall, cl, b, detail)
		})
	}
	a.gateUnlock(b)
}

// --- sparse replacement recall (machine: replaceEntry & friends) ---

func (a *applier) replaceEntry(h, vb int, ve dirEntry) {
	a.s.recalls[vb]++
	if a.m.cfg.Bug != BugRecallGateRace && a.s.gate[vb] {
		// A transaction is in flight on the victim block; recall when the
		// gate clears. (BugRecallGateRace re-injects the historical bug of
		// starting the recall anyway.)
		a.s.gateQ[vb] = append(a.s.gateQ[vb], qItem{kind: qRecall, from: -1, ve: ve})
		return
	}
	a.sendReplacementInvals(h, vb, ve)
}

func (a *applier) sendReplacementInvals(h, vb int, ve dirEntry) {
	if ve.empty() {
		a.s.recalls[vb]--
		return
	}
	if ve.dirty {
		a.gateLock(vb)
		a.racStart(vb, 1)
		a.send(kFlush, h, int(ve.owner), vb, -1, fNone)
		return
	}
	targets := ve.mask(a.m.es) &^ (1 << uint(h))
	n := bits.OnesCount8(targets)
	if n == 0 {
		a.s.recalls[vb]--
		return
	}
	a.gateLock(vb)
	a.racStart(vb, n)
	for t := 0; t < a.m.n; t++ {
		if targets&(1<<uint(t)) != 0 {
			a.send(kInval, h, t, vb, -1, fAckToRAC)
		}
	}
}

// --- invalidation application (machine: invalidateCluster/applyInval) ---

// applyInval drops cluster c's copy and poisons its outstanding remote
// read, so the in-flight reply is consumed without installing a copy.
func (a *applier) applyInval(c, b int) {
	a.setCache(c, b, cacheI)
	if a.s.rd[c].active && !a.s.rd[c].local && int(a.s.rd[c].block) == b {
		a.s.rd[c].poisoned = true
	}
}

// nbEviction mirrors handleNBEvictions for the single node a model entry
// can evict: an invalidation whose ack is pure traffic.
func (a *applier) nbEviction(h, b, v int) {
	if v < 0 || v == h {
		return
	}
	a.send(kInval, h, v, b, -1, fAckInert)
}

// --- home service of remote requests (machine: serveRemoteRead/Write) ---

func (a *applier) serveRead(h, rc, b int) {
	if a.s.gate[b] {
		a.s.gateQ[b] = append(a.s.gateQ[b], qItem{kind: qRead, from: int8(rc)})
		return
	}
	e := a.dirLookup(b)
	if e != nil && e.dirty && int(e.owner) != rc {
		// Three-cluster read: forward to the owner, which replies to the
		// requester and sends an (inert) sharing writeback home.
		owner := int(e.owner)
		e.clearDirty()
		a.nbEviction(h, b, e.addSharer(a.m.es, rc))
		a.gateLock(b)
		a.send(kFwdReadReq, h, owner, b, rc, fNone)
		return
	}
	// Clean at home (or owned by the requester after a writeback race).
	e2, vb, ve, hadVictim := a.dirAllocate(b)
	if hadVictim {
		a.replaceEntry(h, vb, ve)
	}
	if e2.dirty && int(e2.owner) == rc {
		if a.cacheAt(rc, b) == cacheD && a.m.cfg.Bug != BugStaleReadReq {
			// Stale request: the cluster's later write overtook this read
			// and ownership is already back. Entry untouched; the reply
			// completes the (poisoned) read.
			if a.s.rd[rc].active && !a.s.rd[rc].local && int(a.s.rd[rc].block) == b {
				a.s.rd[rc].poisoned = true
			}
			a.send(kDataReply, h, rc, b, -1, fNone)
			return
		}
		// The owner itself is asking: its copy was evicted, so a writeback
		// is in flight and now stale.
		e2.clearDirty()
		a.s.wbExp[b]++
	}
	// Home-bus snoop: downgrade a dirty home copy so memory is current.
	if a.cacheAt(h, b) == cacheD {
		a.setCache(h, b, cacheS)
	}
	a.nbEviction(h, b, e2.addSharer(a.m.es, rc))
	a.send(kDataReply, h, rc, b, -1, fNone)
}

// serveWrite handles WriteReq and UpgradeReq alike; the machine's only
// upgrade-specific behavior (fillExclusive) lives at the requester, where
// the model's completeWrite already covers both cases.
func (a *applier) serveWrite(h, rc, b int) {
	if a.s.gate[b] {
		a.s.gateQ[b] = append(a.s.gateQ[b], qItem{kind: qWrite, from: int8(rc)})
		return
	}
	e, vb, ve, hadVictim := a.dirAllocate(b)
	if hadVictim {
		a.replaceEntry(h, vb, ve)
	}
	if e.dirty && int(e.owner) != rc {
		// Ownership transfer between two remote clusters.
		owner := int(e.owner)
		e.setDirty(a.m.es, rc)
		a.gateLock(b)
		a.send(kFwdWriteReq, h, owner, b, rc, fNone)
		return
	}
	if e.dirty && int(e.owner) == rc && a.cacheAt(rc, b) != cacheD {
		// Re-granting to the recorded owner: its in-flight writeback is
		// stale. (If the cluster still holds the block dirty, the request
		// itself is the stale artifact and no writeback is coming.)
		a.s.wbExp[b]++
	}
	targets := e.mask(a.m.es) &^ (1 << uint(rc)) &^ (1 << uint(h))
	a.applyInval(h, b) // home-bus snoop, no messages
	e.setDirty(a.m.es, rc)
	a.s.acks[rc] += uint8(bits.OnesCount8(targets))
	a.gateLock(b)
	a.send(kOwnershipReply, h, rc, b, -1, fNone)
	for t := 0; t < a.m.n; t++ {
		if targets&(1<<uint(t)) != 0 {
			a.send(kInval, h, t, b, rc, fAckToReq)
		}
	}
}

// --- home-local accesses (machine: homeLocalRead/homeLocalWrite) ---

func (a *applier) homeLocalRead(c, b int) {
	if a.s.gate[b] {
		a.s.gateQ[b] = append(a.s.gateQ[b], qItem{kind: qLocalRead, from: int8(c)})
		return
	}
	// Re-snoop: the cluster may have obtained a copy while the request
	// waited on the gate; the bus supplies it directly (a dirty copy
	// downgrades, memory updated over the bus).
	if a.cacheAt(c, b) != cacheI {
		if a.cacheAt(c, b) == cacheD {
			a.setCache(c, b, cacheS)
		}
		a.s.rd[c] = opSlot{}
		return
	}
	e := a.dirLookup(b)
	if e == nil || !e.dirty {
		a.setCache(c, b, cacheS)
		a.s.rd[c] = opSlot{}
		return
	}
	// Dirty in a remote cluster: forward there; the reply to the home
	// doubles as the sharing writeback.
	owner := int(e.owner)
	e.clearDirty()
	a.gateLock(b)
	a.send(kFwdReadReq, c, owner, b, c, fNone)
}

func (a *applier) homeLocalWrite(c, b int) {
	if a.s.gate[b] {
		a.s.gateQ[b] = append(a.s.gateQ[b], qItem{kind: qLocalWrite, from: int8(c)})
		return
	}
	// Re-snoop: a dirty copy picked up while waiting transfers ownership
	// over the bus; the directory state is unchanged.
	if a.cacheAt(c, b) == cacheD {
		a.s.wr[c] = opSlot{}
		return
	}
	e := a.dirLookup(b)
	if e == nil || e.empty() {
		if e != nil {
			a.dirRelease(b)
		}
		a.setCache(c, b, cacheD)
		a.s.wr[c] = opSlot{}
		return
	}
	if e.dirty {
		// Recall from the remote owner; afterwards the block is dirty in
		// the home cluster and needs no directory entry.
		owner := int(e.owner)
		e.reset()
		a.dirRelease(b)
		a.gateLock(b)
		a.send(kFwdWriteReq, c, owner, b, c, fNone)
		return
	}
	// Remote sharers: invalidate them; ownership is granted immediately.
	targets := e.mask(a.m.es) &^ (1 << uint(c))
	e.reset()
	a.dirRelease(b)
	a.s.acks[c] += uint8(bits.OnesCount8(targets))
	a.setCache(c, b, cacheD)
	a.s.wr[c] = opSlot{}
	for t := 0; t < a.m.n; t++ {
		if targets&(1<<uint(t)) != 0 {
			a.send(kInval, c, t, b, c, fAckToReq)
		}
	}
}

// --- replies at the requester (machine: remoteReadDone/remoteWriteDone) ---

func (a *applier) completeRead(c, b int, unlock bool) {
	if !a.s.rd[c].active || int(a.s.rd[c].block) != b {
		a.emit(check.RuleProtocol, c, b, "data reply with no read outstanding")
		return
	}
	if !a.s.rd[c].poisoned {
		a.setCache(c, b, cacheS)
	}
	a.s.rd[c] = opSlot{}
	if unlock {
		a.gateUnlock(b)
	}
}

func (a *applier) completeWrite(c, b int) {
	if !a.s.wr[c].active || int(a.s.wr[c].block) != b {
		a.emit(check.RuleProtocol, c, b, "ownership reply with no write outstanding")
		return
	}
	a.setCache(c, b, cacheD)
	a.s.wr[c] = opSlot{}
	a.gateUnlock(b)
}

// --- writeback arrivals at the home (machine: handleVictim/sendSharingWB
// delivery closures, including the PR5 stale-message guards) ---

func (a *applier) sharingWBArrived(from, b int) {
	if a.s.wbExp[b] > 0 {
		a.s.wbExp[b]--
		return
	}
	// Guarded downgrade: ancient unless the directory still records the
	// sender as dirty owner and the sender is not dirty again. A busy gate
	// with the entry dirty-owned by the sender means an ownership grant to
	// the sender is still in flight, so the writeback predates the grant
	// and is ancient even though the sender's cache is not yet dirty.
	e := a.dirLookup(b)
	if e != nil && e.dirty && int(e.owner) == from &&
		(a.m.cfg.Bug == BugStaleSharingWB ||
			(a.cacheAt(from, b) != cacheD && !a.s.gate[b])) {
		e.clearDirty()
	}
}

func (a *applier) writebackArrived(from, b int) {
	if a.s.wbExp[b] > 0 {
		a.s.wbExp[b]--
		return
	}
	// Guarded release: only clear ownership if the directory still
	// believes the sender owns the block, it has not re-acquired the block
	// dirty meanwhile, and no grant back to the sender is in flight (gate
	// busy with the entry dirty-owned by the sender can only mean an
	// undelivered OwnershipReply to it, which this writeback predates).
	e := a.dirLookup(b)
	if e != nil && e.dirty && int(e.owner) == from &&
		(a.m.cfg.Bug == BugStaleWritebackReq ||
			(a.cacheAt(from, b) != cacheD && !a.s.gate[b])) {
		e.reset()
		a.dirRelease(b)
	}
}

// --- spontaneous processor operations ---

func (a *applier) issueRead(c, b int) {
	if a.m.home(b) == c {
		a.s.rd[c] = opSlot{active: true, block: int8(b), local: true}
		a.homeLocalRead(c, b)
		return
	}
	a.s.rd[c] = opSlot{active: true, block: int8(b)}
	a.send(kReadReq, c, a.m.home(b), b, c, fNone)
}

func (a *applier) issueWrite(c, b int) {
	// Bus-order serialization: an outstanding read on the block must not
	// install a copy after this write.
	if a.s.rd[c].active && !a.s.rd[c].local && int(a.s.rd[c].block) == b {
		a.s.rd[c].poisoned = true
	}
	kind := kWriteReq
	if a.cacheAt(c, b) == cacheS {
		kind = kUpgradeReq
	}
	if a.m.home(b) == c {
		a.s.wr[c] = opSlot{active: true, block: int8(b), local: true}
		a.homeLocalWrite(c, b)
		return
	}
	a.s.wr[c] = opSlot{active: true, block: int8(b)}
	a.send(kind, c, a.m.home(b), b, c, fNone)
}

func (a *applier) evictOp(c, b int) {
	st := a.cacheAt(c, b)
	a.setCache(c, b, cacheI)
	if st == cacheD && a.m.home(b) != c {
		a.send(kWritebackReq, c, a.m.home(b), b, -1, fNone)
	}
}

func (a *applier) downgradeOp(c, b int) {
	a.setCache(c, b, cacheS)
	if a.m.home(b) != c {
		a.send(kSharingWB, c, a.m.home(b), b, -1, fMeaningful)
	}
}

// --- message dispatch ---

// deliver removes message i from the multiset and runs its handler.
func (a *applier) deliver(i int) {
	g := a.s.msgs[i]
	a.s.msgs = append(a.s.msgs[:i:i], a.s.msgs[i+1:]...)
	b := int(g.block)
	switch g.kind {
	case kReadReq:
		a.serveRead(int(g.to), int(g.from), b)
	case kWriteReq, kUpgradeReq:
		a.serveWrite(int(g.to), int(g.from), b)
	case kFwdReadReq:
		// At the owner: downgrade, reply to the requester (unlocking the
		// home gate), and send the home an inert sharing writeback unless
		// the requester is the home itself.
		o := int(g.to)
		if a.cacheAt(o, b) == cacheD {
			a.setCache(o, b, cacheS)
		}
		a.send(kDataReply, o, int(g.req), b, -1, fUnlock)
		if int(g.req) != a.m.home(b) {
			a.send(kSharingWB, o, a.m.home(b), b, -1, fInert)
		}
	case kFwdWriteReq:
		o := int(g.to)
		a.applyInval(o, b)
		a.send(kOwnershipReply, o, int(g.req), b, -1, fNone)
	case kDataReply:
		a.completeRead(int(g.to), b, g.flavor == fUnlock)
	case kOwnershipReply:
		a.completeWrite(int(g.to), b)
	case kSharingWB:
		if g.flavor != fInert {
			a.sharingWBArrived(int(g.from), b)
		}
	case kWritebackReq:
		a.writebackArrived(int(g.from), b)
	case kInval:
		a.applyInval(int(g.to), b)
		switch g.flavor {
		case fAckToReq:
			a.send(kAckMsg, int(g.to), int(g.req), b, -1, fAckProc)
		case fAckToRAC:
			a.send(kAckMsg, int(g.to), int(g.from), b, -1, fAckRAC)
		case fAckInert:
			a.send(kAckMsg, int(g.to), int(g.from), b, -1, fAckNone)
		}
	case kFlush:
		a.applyInval(int(g.to), b)
		a.send(kAckMsg, int(g.to), int(g.from), b, -1, fAckRAC)
	case kAckMsg:
		switch g.flavor {
		case fAckProc:
			c := int(g.to)
			if a.s.acks[c] == 0 {
				a.emit(check.RuleAck, c, b, "invalidation ack with no acknowledgement outstanding")
				return
			}
			a.s.acks[c]--
		case fAckRAC:
			a.racAck(b)
		}
	default:
		a.emit(check.RuleProtocol, int(g.to), b, fmt.Sprintf("unhandled message kind %v", protocol.MsgKind(g.kind)))
	}
}

// --- invariant views (shared predicate inputs, see internal/check) ---

func (a *applier) blockCopies(b int) []check.Copy {
	var copies []check.Copy
	for c := 0; c < a.m.n; c++ {
		switch a.cacheAt(c, b) {
		case cacheS:
			copies = append(copies, check.Copy{Proc: c, Cluster: c, State: check.CopyShared})
		case cacheD:
			copies = append(copies, check.Copy{Proc: c, Cluster: c, State: check.CopyDirty})
		}
	}
	return copies
}

func (a *applier) entryView(b int) check.EntryView {
	e := a.dirPeek(b)
	if e == nil {
		return check.EntryView{Owner: -1}
	}
	return check.EntryView{
		Present: true,
		Dirty:   e.dirty,
		Owner:   int(e.owner),
		Sharers: sharerMask(e.mask(a.m.es)),
	}
}

// sharerMask is a candidate set as a cluster bitmask.
type sharerMask uint8

func (s sharerMask) IsSharer(cl int) bool { return s&(1<<uint(cl)) != 0 }

// checkState runs the per-state invariants: single-writer and directory
// coverage per quiescent block (the same gating as the runtime checker's
// checkBlock), plus structural acknowledgement conservation.
func (a *applier) checkState() {
	for b := 0; b < a.m.nb; b++ {
		if a.s.gate[b] || a.s.rac[b] > 0 || a.inflight(b) > 0 {
			continue
		}
		copies := a.blockCopies(b)
		check.SingleWriter(copies, func(cl int, detail string) {
			a.emit(check.RuleSingleWriter, cl, b, detail)
		})
		if len(copies) == 0 {
			continue
		}
		check.Coverage(a.m.home(b), copies, a.entryView(b), func(cl int, detail string) {
			a.emit(check.RuleCoverage, cl, b, detail)
		})
	}
	for c := 0; c < a.m.n; c++ {
		owed := 0
		for _, g := range a.s.msgs {
			if (g.kind == kInval && g.flavor == fAckToReq && int(g.req) == c) ||
				(g.kind == kAckMsg && g.flavor == fAckProc && int(g.to) == c) {
				owed++
			}
		}
		if int(a.s.acks[c]) != owed {
			a.emit(check.RuleAck, c, -1, fmt.Sprintf(
				"cluster expects %d invalidation acks but %d are in flight", a.s.acks[c], owed))
		}
	}
}
