package protocol

import (
	"strings"
	"testing"

	"dircoh/internal/sim"
)

// TestGateAnomalyCallback verifies the Anomaly hook fires with the
// offending op and block before each gate panic, so the machine can
// attach transaction context to the abort.
func TestGateAnomalyCallback(t *testing.T) {
	cases := []struct {
		name, wantOp string
		trip         func(g *Gate)
	}{
		{"double lock", "Gate.Lock", func(g *Gate) { g.Lock(3); g.Lock(3) }},
		{"wait free", "Gate.Wait", func(g *Gate) { g.Wait(3, sim.Event{}) }},
		{"unlock free", "Gate.Unlock", func(g *Gate) { g.Unlock(3, func(sim.Event) {}) }},
	}
	for _, tc := range cases {
		g := new(Gate)
		var gotOp string
		var gotBlock int64
		g.Anomaly = func(op string, block int64) { gotOp, gotBlock = op, block }
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panic expected even with Anomaly set", tc.name)
				}
			}()
			tc.trip(g)
		}()
		if !strings.Contains(gotOp, tc.wantOp) || gotBlock != 3 {
			t.Errorf("%s: Anomaly saw (%q, %d), want (%s*, 3)", tc.name, gotOp, gotBlock, tc.wantOp)
		}
	}
}

// TestRACAnomalyCallback mirrors TestGateAnomalyCallback for the RAC.
func TestRACAnomalyCallback(t *testing.T) {
	cases := []struct {
		name, wantOp string
		trip         func(r *RAC)
	}{
		{"zero count", "RAC.Start", func(r *RAC) { r.Start(5, 0) }},
		{"double start", "RAC.Start", func(r *RAC) { r.Start(5, 1); r.Start(5, 2) }},
		{"untracked ack", "RAC.Ack", func(r *RAC) { r.Ack(5) }},
	}
	for _, tc := range cases {
		r := new(RAC)
		var gotOp string
		var gotBlock int64
		r.Anomaly = func(op string, block int64) { gotOp, gotBlock = op, block }
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panic expected even with Anomaly set", tc.name)
				}
			}()
			tc.trip(r)
		}()
		if !strings.Contains(gotOp, tc.wantOp) || gotBlock != 5 {
			t.Errorf("%s: Anomaly saw (%q, %d), want (%s*, 5)", tc.name, gotOp, gotBlock, tc.wantOp)
		}
	}
}

// FuzzGate drives byte-encoded legal op sequences — locks, waiters that
// may re-lock on replay, unlocks — over a few blocks, against a direct
// model of the gate's contract: waiters replay FIFO until one re-locks;
// an idle block's state is dropped from the table.
func FuzzGate(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0x01, 0x42, 0x02})
	f.Add([]byte{0x10, 0x51, 0x92, 0xd1, 0x12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const blocks = 4
		g := new(Gate)
		type waiter struct {
			id, block int
			relock    bool
		}
		var ran, wantRan []int
		busy := [blocks]bool{}       // model lock state
		queues := [blocks][]waiter{} // model FIFO queues
		modelUnlock := func(b int) {
			busy[b] = false
			for !busy[b] && len(queues[b]) > 0 {
				w := queues[b][0]
				queues[b] = queues[b][1:]
				wantRan = append(wantRan, w.id)
				if w.relock {
					busy[b] = true
				}
			}
		}
		var ws waiters
		addWaiter := func(b int, relock bool) {
			id := len(ws)
			queues[b] = append(queues[b], waiter{id: id, block: b, relock: relock})
			ws.wait(g, int64(b), func() {
				ran = append(ran, id)
				if relock {
					g.Lock(int64(b))
				}
			})
		}
		for _, op := range ops {
			b := int(op) & 0x3
			relock := op&0x80 != 0
			switch (op >> 4) & 0x7 {
			case 0, 1: // lock if free
				if !busy[b] {
					g.Lock(int64(b))
					busy[b] = true
				}
			case 2, 3: // enqueue a waiter while busy
				if busy[b] {
					addWaiter(b, relock)
				}
			default: // unlock if held
				if busy[b] {
					g.Unlock(int64(b), ws.replay)
					modelUnlock(b)
				}
			}
			for i := 0; i < blocks; i++ {
				if got := g.Busy(int64(i)); got != busy[i] {
					t.Fatalf("block %d: Busy=%v, model says %v", i, got, busy[i])
				}
				if got, want := g.Pending(int64(i)), len(queues[i]); got != want {
					t.Fatalf("block %d: Pending=%d, model says %d", i, got, want)
				}
			}
		}
		// Drain: every queued waiter must eventually run, in FIFO order.
		for b := 0; b < blocks; b++ {
			for busy[b] {
				g.Unlock(int64(b), ws.replay)
				modelUnlock(b)
			}
		}
		if len(ran) != len(wantRan) {
			t.Fatalf("%d waiters ran, model ran %d", len(ran), len(wantRan))
		}
		for i := range ran {
			if ran[i] != wantRan[i] {
				t.Fatalf("replay order %v, model says %v", ran, wantRan)
			}
		}
	})
}

// FuzzRAC drives legal Start/Ack sequences against a plain counter map,
// checking completion signalling, Tracking, and the peak watermark.
func FuzzRAC(f *testing.F) {
	f.Add([]byte{0x13, 0x01, 0x01, 0x23, 0x02})
	f.Add([]byte{0x41, 0x04, 0x04, 0x04, 0x04})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := new(RAC)
		model := map[int64]int{}
		peak := 0
		for _, op := range ops {
			b := int64(op & 0x7)
			if _, tracked := model[b]; !tracked {
				n := 1 + int(op>>3)&0x3
				r.Start(b, n)
				model[b] = n
				if len(model) > peak {
					peak = len(model)
				}
			} else {
				done := r.Ack(b)
				model[b]--
				wantDone := model[b] == 0
				if wantDone {
					delete(model, b)
				}
				if done != wantDone {
					t.Fatalf("Ack(%d): done=%v, model says %v", b, done, wantDone)
				}
			}
			for blk := int64(0); blk < 8; blk++ {
				_, want := model[blk]
				if got := r.Tracking(blk); got != want {
					t.Fatalf("Tracking(%d)=%v, model says %v", blk, got, want)
				}
			}
		}
		if r.Peak() != peak {
			t.Fatalf("Peak=%d, model says %d", r.Peak(), peak)
		}
	})
}
