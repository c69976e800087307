package protocol

import (
	"math/rand"
	"testing"

	"dircoh/internal/core"
	"dircoh/internal/sim"
	"dircoh/internal/stats"
)

func TestMsgKindClassTotalCoverage(t *testing.T) {
	// Every kind maps to a class and renders a name.
	for k := MsgKind(0); k < numMsgKinds; k++ {
		_ = k.Class()
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	if MsgKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestMsgKindClasses(t *testing.T) {
	cases := map[MsgKind]stats.MsgClass{
		ReadReq:        stats.Request,
		WritebackReq:   stats.Request, // paper: writebacks count as requests
		LockReq:        stats.Request,
		DataReply:      stats.Reply,
		OwnershipReply: stats.Reply,
		LockGrant:      stats.Reply,
		Inval:          stats.Invalidation,
		Flush:          stats.Invalidation,
		AckMsg:         stats.Ack,
	}
	for k, want := range cases {
		if got := k.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", k, got, want)
		}
	}
}

// waiters queues test callbacks on a gate as events whose Arg indexes
// the callback; replay runs them.
type waiters []func()

func (ws *waiters) wait(g *Gate, block int64, fn func()) {
	*ws = append(*ws, fn)
	g.Wait(block, sim.Event{Arg: uint32(len(*ws) - 1)})
}

func (ws *waiters) replay(ev sim.Event) { (*ws)[ev.Arg]() }

func TestGateSerialization(t *testing.T) {
	g := new(Gate)
	if g.Busy(1) {
		t.Fatal("fresh gate busy")
	}
	g.Lock(1)
	if !g.Busy(1) {
		t.Fatal("gate should be busy")
	}
	var order []int
	var ws waiters
	ws.wait(g, 1, func() { order = append(order, 1) })
	ws.wait(g, 1, func() { order = append(order, 2); g.Lock(1) }) // re-locks
	ws.wait(g, 1, func() { order = append(order, 3) })
	if g.Pending(1) != 3 {
		t.Fatalf("Pending = %d, want 3", g.Pending(1))
	}
	g.Unlock(1, ws.replay)
	// 1 and 2 ran; 2 re-locked so 3 is still queued.
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if !g.Busy(1) || g.Pending(1) != 1 {
		t.Fatal("gate state wrong after partial drain")
	}
	g.Unlock(1, ws.replay)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if g.Busy(1) {
		t.Fatal("gate should be free")
	}
}

// TestGateReusesState: once warm, locking, queueing on and draining fresh
// blocks allocates nothing — an idle block's state and queue are reused.
func TestGateReusesState(t *testing.T) {
	g := new(Gate)
	replay := func(sim.Event) {}
	block := int64(0)
	cycle := func() {
		block++
		g.Lock(block)
		g.Wait(block, sim.Event{Arg: 1})
		g.Wait(block, sim.Event{Arg: 2})
		g.Unlock(block, replay)
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the map and the queues
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("a lock/wait/unlock cycle on a fresh block allocates %.1f times", a)
	}
	if g.Busy(block) || g.Pending(block) != 0 {
		t.Fatal("drained block still busy or queued")
	}
}

func TestGatePanics(t *testing.T) {
	g := new(Gate)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Lock should panic")
			}
		}()
		g.Lock(5)
		g.Lock(5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Wait on free block should panic")
			}
		}()
		g.Wait(6, sim.Event{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Unlock on free block should panic")
			}
		}()
		g.Unlock(7, func(sim.Event) {})
	}()
}

func TestRAC(t *testing.T) {
	r := new(RAC)
	r.Start(10, 3)
	if !r.Tracking(10) {
		t.Fatal("should track block 10")
	}
	if r.Ack(10) || r.Ack(10) {
		t.Fatal("not done yet")
	}
	if !r.Ack(10) {
		t.Fatal("third ack should complete")
	}
	if r.Tracking(10) {
		t.Fatal("should be done")
	}
	r.Start(11, 1)
	r.Start(12, 1)
	if r.Peak() < 2 {
		t.Fatalf("Peak = %d, want >= 2", r.Peak())
	}
}

func TestRACPanics(t *testing.T) {
	r := new(RAC)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero count should panic")
			}
		}()
		r.Start(1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Start should panic")
			}
		}()
		r.Start(2, 1)
		r.Start(2, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Ack on untracked should panic")
			}
		}()
		r.Ack(99)
	}()
}

func TestLockBasicAcquireRelease(t *testing.T) {
	lt := &LockTable{Scheme: core.Must(core.NewFullVector(8))}
	granted, woken := lt.Acquire(100, 2, 20)
	if !granted || woken != nil {
		t.Fatal("free lock should grant immediately")
	}
	if !lt.Held(100) {
		t.Fatal("lock should be held")
	}
	g := lt.Release(100)
	if g.Direct || g.Wake != nil {
		t.Fatalf("grant = %+v, want empty", g)
	}
	if lt.Held(100) {
		t.Fatal("lock should be free")
	}
}

func TestLockDirectGrantFullVector(t *testing.T) {
	lt := &LockTable{Scheme: core.Must(core.NewFullVector(8))}
	lt.Acquire(100, 0, 0)
	if granted, _ := lt.Acquire(100, 3, 30); granted {
		t.Fatal("held lock should queue")
	}
	g := lt.Release(100)
	if !g.Direct || g.Node != 3 || g.Proc != 30 {
		t.Fatalf("grant = %+v, want direct to node 3 proc 30", g)
	}
	if !lt.Held(100) {
		t.Fatal("direct grant should keep lock held")
	}
	// Released again with no waiters: free.
	g = lt.Release(100)
	if g.Direct || g.Wake != nil {
		t.Fatalf("grant = %+v", g)
	}
}

func TestLockMultipleProcsSameNode(t *testing.T) {
	lt := &LockTable{Scheme: core.Must(core.NewFullVector(8))}
	lt.Acquire(100, 0, 0)
	lt.Acquire(100, 3, 30)
	lt.Acquire(100, 3, 31)
	g := lt.Release(100)
	if !g.Direct || g.Proc != 30 {
		t.Fatalf("grant = %+v, want proc 30", g)
	}
	g = lt.Release(100)
	if !g.Direct || g.Proc != 31 {
		t.Fatalf("grant = %+v, want proc 31 (requeued node)", g)
	}
}

func TestLockCoarseRegionWake(t *testing.T) {
	// Coarse vector with 1 pointer, region 2: two waiters overflow into
	// coarse mode; release wakes a whole region.
	lt := &LockTable{Scheme: core.Must(core.NewCoarseVector(1, 2, 8))}
	lt.Acquire(100, 0, 0)
	lt.Acquire(100, 4, 40)
	lt.Acquire(100, 6, 60) // overflow: waiters now coarse {region 2, region 3}
	g := lt.Release(100)
	if g.Direct {
		t.Fatalf("grant = %+v, want region wake", g)
	}
	if len(g.Wake) != 2 || g.Wake[0] != 4 || g.Wake[1] != 5 {
		t.Fatalf("Wake = %v, want region [4 5]", g.Wake)
	}
	// Node 4 has a real waiter; node 5 does not.
	if procs := lt.TakeWaiters(100, 4); len(procs) != 1 || procs[0] != 40 {
		t.Fatalf("TakeWaiters(4) = %v", procs)
	}
	if procs := lt.TakeWaiters(100, 5); len(procs) != 0 {
		t.Fatalf("TakeWaiters(5) = %v, want none", procs)
	}
	if lt.Held(100) {
		t.Fatal("region wake leaves lock free for re-contention")
	}
}

func TestLockNBEvictionWakes(t *testing.T) {
	lt := &LockTable{Scheme: core.Must(core.NewLimitedNoBroadcast(1, 8, core.VictimOldest, 1))}
	lt.Acquire(100, 0, 0)
	lt.Acquire(100, 1, 10)
	_, woken := lt.Acquire(100, 2, 20) // evicts node 1 from waiter entry
	if len(woken) != 1 || woken[0] != 1 {
		t.Fatalf("woken = %v, want [1]", woken)
	}
}

func TestReleaseFreeLockPanics(t *testing.T) {
	lt := &LockTable{Scheme: core.Must(core.NewFullVector(4))}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lt.Release(55)
}

func TestBarrier(t *testing.T) {
	bt := NewBarrierTable(3)
	if rel := bt.Arrive(7, 0); rel != nil {
		t.Fatal("early release")
	}
	if rel := bt.Arrive(7, 1); rel != nil {
		t.Fatal("early release")
	}
	if bt.Waiting(7) != 2 {
		t.Fatalf("Waiting = %d", bt.Waiting(7))
	}
	rel := bt.Arrive(7, 2)
	if len(rel) != 3 {
		t.Fatalf("release = %v", rel)
	}
	if bt.Waiting(7) != 0 {
		t.Fatal("barrier should reset")
	}
	// Reusable.
	bt.Arrive(7, 5)
	if bt.Waiting(7) != 1 {
		t.Fatal("barrier not reusable")
	}
}

func TestBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrierTable(0)
}

// TestQuickGateReference drives the gate with random lock/wait/unlock
// sequences against a reference queue: waiters run in FIFO order, exactly
// once, and only while the gate is free.
func TestQuickGateReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		g := new(Gate)
		const block = int64(7)
		var ws waiters
		var ran []int
		next := 0
		enqueued := 0
		locked := false
		for step := 0; step < 50; step++ {
			switch rng.Intn(3) {
			case 0: // lock if free
				if !locked && !g.Busy(block) {
					g.Lock(block)
					locked = true
				}
			case 1: // enqueue a waiter while busy
				if locked {
					id := enqueued
					enqueued++
					ws.wait(g, block, func() { ran = append(ran, id) })
				}
			case 2: // unlock and drain
				if locked {
					locked = false
					g.Unlock(block, ws.replay)
				}
			}
		}
		if locked {
			g.Unlock(block, ws.replay)
		}
		if len(ran) != enqueued {
			t.Fatalf("trial %d: %d waiters ran, %d enqueued", trial, len(ran), enqueued)
		}
		for _, id := range ran {
			if id != next {
				t.Fatalf("trial %d: waiter order %v not FIFO", trial, ran)
			}
			next++
		}
	}
}

// TestFreshTablesReadWithoutAllocating: a zero-value Gate, RAC and
// LockTable answer every read without allocating or making a map, so a
// machine can hold one of each per cluster and pay only for the clusters
// that write to them.
func TestFreshTablesReadWithoutAllocating(t *testing.T) {
	var g Gate
	var r RAC
	lt := LockTable{Scheme: core.Must(core.NewFullVector(8))}
	allocs := testing.AllocsPerRun(100, func() {
		for b := int64(0); b < 8; b++ {
			if g.Busy(b) || g.Pending(b) != 0 || r.Tracking(b) || r.Outstanding(b) != 0 || lt.Held(b) {
				t.Fatalf("a fresh table reports state for block %d", b)
			}
		}
		if g.BusyBlocks() != nil || r.TrackedBlocks() != nil || r.Peak() != 0 {
			t.Fatal("a fresh table lists blocks")
		}
	})
	if allocs != 0 {
		t.Fatalf("reads of fresh tables allocate %v times", allocs)
	}
	if g.m != nil || r.pending != nil || lt.locks != nil {
		t.Fatal("a read made a table's map")
	}
}

// TestBarrierStateReused: a barrier address's state is kept across
// episodes, so repeated episodes allocate nothing after the first.
func TestBarrierStateReused(t *testing.T) {
	bt := NewBarrierTable(4)
	episode := func() {
		for p := 0; p < 4; p++ {
			rel := bt.Arrive(7, p)
			if (rel != nil) != (p == 3) {
				t.Fatalf("arrival %d: release %v", p, rel)
			}
		}
	}
	episode()
	if a := testing.AllocsPerRun(50, episode); a != 0 {
		t.Fatalf("a repeated barrier episode allocates %v times", a)
	}
}
