package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyWheel(t *testing.T) {
	e := NewWheel(0)
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatal("new wheel not pristine")
	}
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime on empty queue should report none")
	}
	if !e.RunUntil(math.MaxUint64, func(Event) { t.Fatal("fired on empty queue") }) {
		t.Fatal("RunUntil on empty queue should report drained")
	}
	if e.Now() != 0 {
		t.Fatal("RunUntil on empty queue should leave time 0")
	}
}

func TestEventOrdering(t *testing.T) {
	h := newHarness(0)
	var order []int
	h.at(30, func() { order = append(order, 3) })
	h.at(10, func() { order = append(order, 1) })
	h.at(20, func() { order = append(order, 2) })
	h.run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if h.w.Now() != 30 {
		t.Fatalf("Now = %d, want 30", h.w.Now())
	}
	if h.w.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", h.w.Fired())
	}
}

func TestAfterAndChaining(t *testing.T) {
	h := newHarness(0)
	var hits []Time
	h.after(10, func() {
		hits = append(hits, h.w.Now())
		h.after(5, func() { hits = append(hits, h.w.Now()) })
	})
	h.run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	h := newHarness(0)
	h.at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		h.at(5, func() {})
	})
	h.run()
}

func TestRunUntil(t *testing.T) {
	h := newHarness(0)
	fired := 0
	for _, t := range []Time{5, 10, 15, 20} {
		h.at(t, func() { fired++ })
	}
	if h.runUntil(12) {
		t.Fatal("queue should not have drained")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if h.w.Now() != 10 {
		t.Fatalf("Now = %d, want 10", h.w.Now())
	}
	if !h.runUntil(100) {
		t.Fatal("queue should drain")
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
}

func TestRunUntilIncludesNewlyScheduled(t *testing.T) {
	h := newHarness(0)
	var hits []Time
	h.at(5, func() {
		hits = append(hits, h.w.Now())
		h.after(3, func() { hits = append(hits, h.w.Now()) }) // t=8 <= 10
	})
	h.runUntil(10)
	if len(hits) != 2 || hits[1] != 8 {
		t.Fatalf("hits = %v", hits)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestQuickMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		h := newHarness(0)
		var times []Time
		for _, d := range delays {
			h.at(Time(d), func() { times = append(times, h.w.Now()) })
		}
		h.run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
