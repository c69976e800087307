package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refEngine is the reference the wheel is checked against: the simplest
// correct scheduler, which keeps every pending event in one slice and fires
// the minimum by (time, insertion order).
type refEngine struct {
	now Time
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	fn  Event
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) After(d Time, fn Event) {
	e.seq++
	e.evs = append(e.evs, refEvent{at: e.now + d, seq: e.seq, fn: fn})
}

func (e *refEngine) Run() Time {
	for len(e.evs) > 0 {
		sort.Slice(e.evs, func(i, j int) bool {
			if e.evs[i].at != e.evs[j].at {
				return e.evs[i].at < e.evs[j].at
			}
			return e.evs[i].seq < e.evs[j].seq
		})
		ev := e.evs[0]
		e.evs = e.evs[1:]
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// scheduler is the slice of the wheel's API the cross-check drives.
type scheduler interface {
	Now() Time
	After(Time, Event)
	Run() Time
}

// TestWheelMatchesEngine cross-checks the wheel against the reference
// engine on a randomized schedule, including events that schedule further
// events: both must fire the same callbacks in the same order at the same
// times.
func TestWheelMatchesEngine(t *testing.T) {
	type firing struct {
		id int
		at Time
	}
	run := func(s scheduler) []firing {
		var order []firing
		rng := rand.New(rand.NewSource(42))
		id := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 30
			if depth > 0 {
				n = 2
			}
			for i := 0; i < n; i++ {
				myID := id
				id++
				d := Time(rng.Intn(700)) // crosses the wheel horizon both ways
				s.After(d, func() {
					order = append(order, firing{myID, s.Now()})
					if depth < 3 && myID%3 == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		s.Run()
		return order
	}
	ref := run(&refEngine{})
	whl := run(NewWheel(64))
	if len(ref) == 0 || !reflect.DeepEqual(ref, whl) {
		t.Fatalf("firing order diverged:\nreference: %v\nwheel:     %v", ref, whl)
	}
}

// TestWheelTieBreakAcrossBuckets pins the key ordering for equal-time
// events that reach the slot by different routes: one through the overflow
// heap (scheduled beyond the horizon), one bucketed directly later. The
// smaller key must fire first even though it was inserted second.
func TestWheelTieBreakAcrossBuckets(t *testing.T) {
	w := NewWheel(8)
	var order []string
	w.AtKey(9, 2, func() { order = append(order, "overflow") }) // 9-0 >= 8: overflow heap
	w.AtKey(5, 1, func() {
		// now = 5: t=9 is inside the horizon, bucketed directly with a
		// smaller key than the overflow event already bound for t=9.
		w.AtKey(9, 1, func() { order = append(order, "direct") })
	})
	w.Run()
	want := []string{"direct", "overflow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tie-break order = %v, want %v", order, want)
	}
	if w.Now() != 9 {
		t.Fatalf("final time = %d, want 9", w.Now())
	}
}

// TestWheelKeyOrderInsertionIndependent verifies AtKey order does not
// depend on insertion order — the property the machine core's
// (time, origin cluster, sequence) event order rests on.
func TestWheelKeyOrderInsertionIndependent(t *testing.T) {
	type ev struct {
		at  Time
		key uint64
	}
	evs := []ev{{20, 7}, {20, 3}, {5, 1}, {300, 2}, {300, 9}, {20, 5}, {5, 4}}
	var first []ev
	for perm := 0; perm < 3; perm++ {
		w := NewWheel(16)
		var got []ev
		for i := range evs {
			e := evs[(i+perm*3)%len(evs)]
			w.AtKey(e.at, e.key, func() { got = append(got, e) })
		}
		w.Run()
		if perm == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("insertion order %d changed firing order: %v vs %v", perm, got, first)
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.at > b.at || (a.at == b.at && a.key > b.key) {
			t.Fatalf("fired out of (at,key) order: %v before %v", a, b)
		}
	}
}

// TestWheelRunUntilExactDeadline exercises RunUntil with an event exactly
// at the deadline, including an in-flight callback that schedules another
// event at the deadline itself: both must fire and the later event must
// not.
func TestWheelRunUntilExactDeadline(t *testing.T) {
	for _, s := range []*Wheel{NewWheel(8), NewWheel(0)} {
		var fired []string
		s.At(5, func() { fired = append(fired, "early") })
		s.At(10, func() {
			fired = append(fired, "deadline")
			s.At(10, func() { fired = append(fired, "inflight") }) // same-cycle chain
		})
		s.At(11, func() { fired = append(fired, "late") })
		if s.RunUntil(10) {
			t.Fatalf("%T: RunUntil(10) drained, event at 11 still pending", s)
		}
		want := []string{"early", "deadline", "inflight"}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("%T: fired %v, want %v", s, fired, want)
		}
		if s.Now() != 10 {
			t.Fatalf("%T: Now() = %d after RunUntil(10), want 10", s, s.Now())
		}
		if s.Pending() != 1 {
			t.Fatalf("%T: %d events pending, want 1", s, s.Pending())
		}
		if !s.RunUntil(11) {
			t.Fatalf("%T: RunUntil(11) did not drain", s)
		}
		if fired[len(fired)-1] != "late" {
			t.Fatalf("%T: event at 11 never fired: %v", s, fired)
		}
	}
}

// TestAfterOverflow pins the behavior of After near the top of the Time
// range: a delay that still fits schedules normally, a delay that wraps
// panics instead of corrupting causality.
func TestAfterOverflow(t *testing.T) {
	const high = Time(math.MaxUint64) - 10
	for _, s := range []*Wheel{NewWheel(8), NewWheel(0)} {
		s.At(high, func() {})
		s.Step() // now = MaxUint64-10
		if s.Now() != high {
			t.Fatalf("%T: Now() = %d, want %d", s, s.Now(), high)
		}
		ran := false
		s.After(10, func() { ran = true }) // lands exactly on MaxUint64
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T: After(11) near MaxUint64 did not panic", s)
				}
			}()
			s.After(11, func() {})
		}()
		s.Run()
		if !ran {
			t.Fatalf("%T: event at MaxUint64 never fired", s)
		}
		if s.Now() != math.MaxUint64 {
			t.Fatalf("%T: final time %d, want MaxUint64", s, s.Now())
		}
	}
}

// TestWheelPastPanics pins the contract for scheduling behind the current
// time from outside a callback.
func TestWheelPastPanics(t *testing.T) {
	w := NewWheel(8)
	w.At(5, func() {})
	w.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("At(3) with now=5 did not panic")
		}
	}()
	w.At(3, func() {})
}

// BenchmarkWheelChurn models the machine's event pattern: each fired event
// schedules a successor a short latency ahead, over a population of
// concurrent chains.
func BenchmarkWheelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewWheel(0)
		remaining := 200_000
		var chain func()
		chain = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			s.After(Time(13+remaining%40), chain)
		}
		for c := 0; c < 64; c++ {
			s.After(Time(c%17), chain)
		}
		s.Run()
	}
}
