package sim

import (
	"testing"
	"testing/quick"
)

func TestEmptyWheel(t *testing.T) {
	e := NewWheel(0)
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatal("new wheel not pristine")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
	if e.Run() != 0 {
		t.Fatal("Run on empty queue should return time 0")
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewWheel(0)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := NewWheel(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterAndChaining(t *testing.T) {
	e := NewWheel(0)
	var hits []Time
	e.After(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	e := NewWheel(0)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewWheel(0)
	fired := 0
	for _, t := range []Time{5, 10, 15, 20} {
		e.At(t, func() { fired++ })
	}
	if e.RunUntil(12) {
		t.Fatal("queue should not have drained")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	if !e.RunUntil(100) {
		t.Fatal("queue should drain")
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
}

func TestRunUntilIncludesNewlyScheduled(t *testing.T) {
	e := NewWheel(0)
	var hits []Time
	e.At(5, func() {
		hits = append(hits, e.Now())
		e.After(3, func() { hits = append(hits, e.Now()) }) // t=8 <= 10
	})
	e.RunUntil(10)
	if len(hits) != 2 || hits[1] != 8 {
		t.Fatalf("hits = %v", hits)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestQuickMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewWheel(0)
		var times []Time
		for _, d := range delays {
			e.At(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
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
