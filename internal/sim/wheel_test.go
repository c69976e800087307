package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// harness drives a wheel with test callbacks: each scheduled event's Arg
// indexes the callback it runs, and keys are assigned in scheduling order
// unless a test picks them.
type harness struct {
	w   *Wheel
	fns []func()
	seq uint64
}

func newHarness(slots int) *harness { return &harness{w: NewWheel(slots)} }

// atKey schedules fn at t with an explicit key.
func (h *harness) atKey(t Time, key uint64, fn func()) {
	h.fns = append(h.fns, fn)
	h.w.AtKey(t, key, Event{Stage: 1, Arg: uint32(len(h.fns) - 1)})
}

// at schedules fn at t with the next scheduling-order key.
func (h *harness) at(t Time, fn func()) {
	h.seq++
	h.atKey(t, h.seq, fn)
}

// after schedules fn d cycles from now with the next scheduling-order key.
func (h *harness) after(d Time, fn func()) { h.at(h.w.Now()+d, fn) }

func (h *harness) fire(ev Event) { h.fns[ev.Arg]() }

// runUntil fires events up to deadline.
func (h *harness) runUntil(deadline Time) bool { return h.w.RunUntil(deadline, h.fire) }

// run fires every event and returns the final time.
func (h *harness) run() Time {
	h.runUntil(math.MaxUint64)
	return h.w.Now()
}

// refEngine is the reference the wheel is checked against: the simplest
// correct scheduler, which keeps every pending event in one slice and fires
// the minimum by (time, key).
type refEngine struct {
	now Time
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  Time
	key uint64
	fn  func()
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) After(d Time, fn func()) {
	e.seq++
	e.evs = append(e.evs, refEvent{at: e.now + d, key: e.seq, fn: fn})
}

func (e *refEngine) Run() Time {
	for len(e.evs) > 0 {
		sort.Slice(e.evs, func(i, j int) bool {
			if e.evs[i].at != e.evs[j].at {
				return e.evs[i].at < e.evs[j].at
			}
			return e.evs[i].key < e.evs[j].key
		})
		ev := e.evs[0]
		e.evs = e.evs[1:]
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// scheduler is the slice of API the cross-check drives.
type scheduler interface {
	Now() Time
	After(Time, func())
	Run() Time
}

// wheelScheduler adapts the harness to scheduler.
type wheelScheduler struct{ *harness }

func (s wheelScheduler) Now() Time               { return s.w.Now() }
func (s wheelScheduler) After(d Time, fn func()) { s.after(d, fn) }
func (s wheelScheduler) Run() Time               { return s.run() }

// TestWheelMatchesEngine cross-checks the wheel against the reference
// engine on a randomized schedule, including events that schedule further
// events: both must fire the same callbacks in the same order at the same
// times. Keys follow scheduling order, and many events share a time.
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
	whl := run(wheelScheduler{newHarness(64)})
	if len(ref) == 0 || !reflect.DeepEqual(ref, whl) {
		t.Fatalf("firing order diverged:\nreference: %v\nwheel:     %v", ref, whl)
	}
}

// TestWheelTieBreakAcrossBuckets pins the key ordering for equal-time
// events that reach the slot by different routes: one through the overflow
// heap (scheduled beyond the horizon), one bucketed directly later. The
// smaller key must fire first even though it was inserted second.
func TestWheelTieBreakAcrossBuckets(t *testing.T) {
	h := newHarness(8)
	var order []string
	h.atKey(9, 2, func() { order = append(order, "overflow") }) // 9-0 >= 8: overflow heap
	h.atKey(5, 1, func() {
		// now = 5: t=9 is inside the horizon, bucketed directly with a
		// smaller key than the overflow event already bound for t=9.
		h.atKey(9, 1, func() { order = append(order, "direct") })
	})
	h.run()
	want := []string{"direct", "overflow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tie-break order = %v, want %v", order, want)
	}
	if h.w.Now() != 9 {
		t.Fatalf("final time = %d, want 9", h.w.Now())
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
		h := newHarness(16)
		var got []ev
		for i := range evs {
			e := evs[(i+perm*3)%len(evs)]
			h.atKey(e.at, e.key, func() { got = append(got, e) })
		}
		h.run()
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

// TestWheelDrainsSlotInKeyOrder: an event firing at the current time may
// schedule more events at that time, with keys below or above the ones
// still queued there; draining the slot must still fire them all in key
// order before time advances.
func TestWheelDrainsSlotInKeyOrder(t *testing.T) {
	h := newHarness(8)
	var got []uint64
	rec := func(k uint64) func() { return func() { got = append(got, k) } }
	h.atKey(3, 10, func() {
		got = append(got, 10)
		h.atKey(3, 15, rec(15)) // between queued keys
		h.atKey(3, 11, rec(11))
		h.atKey(4, 1, rec(1)) // next cycle, smallest key
	})
	h.atKey(3, 20, rec(20))
	h.atKey(3, 12, rec(12))
	h.run()
	want := []uint64{10, 11, 12, 15, 20, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if h.w.Fired() != uint64(len(want)) {
		t.Fatalf("Fired = %d, want %d", h.w.Fired(), len(want))
	}
}

// TestWheelRunUntilExactDeadline exercises RunUntil with an event exactly
// at the deadline, including an in-flight callback that schedules another
// event at the deadline itself: both must fire and the later event must
// not.
func TestWheelRunUntilExactDeadline(t *testing.T) {
	for _, slots := range []int{8, 0} {
		h := newHarness(slots)
		var fired []string
		h.at(5, func() { fired = append(fired, "early") })
		h.at(10, func() {
			fired = append(fired, "deadline")
			h.at(10, func() { fired = append(fired, "inflight") }) // same-cycle chain
		})
		h.at(11, func() { fired = append(fired, "late") })
		if h.runUntil(10) {
			t.Fatalf("slots %d: RunUntil(10) drained, event at 11 still pending", slots)
		}
		want := []string{"early", "deadline", "inflight"}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("slots %d: fired %v, want %v", slots, fired, want)
		}
		if h.w.Now() != 10 {
			t.Fatalf("slots %d: Now() = %d after RunUntil(10), want 10", slots, h.w.Now())
		}
		if h.w.Pending() != 1 {
			t.Fatalf("slots %d: %d events pending, want 1", slots, h.w.Pending())
		}
		if !h.runUntil(11) {
			t.Fatalf("slots %d: RunUntil(11) did not drain", slots)
		}
		if fired[len(fired)-1] != "late" {
			t.Fatalf("slots %d: event at 11 never fired: %v", slots, fired)
		}
	}
}

// TestWheelTopOfTimeRange pins scheduling near the top of the Time range:
// an event at MaxUint64 fires, and time ends there.
func TestWheelTopOfTimeRange(t *testing.T) {
	const high = Time(math.MaxUint64) - 10
	for _, slots := range []int{8, 0} {
		h := newHarness(slots)
		h.at(high, func() {})
		h.runUntil(high)
		if h.w.Now() != high {
			t.Fatalf("slots %d: Now() = %d, want %d", slots, h.w.Now(), high)
		}
		ran := false
		h.after(10, func() { ran = true }) // lands exactly on MaxUint64
		h.run()
		if !ran {
			t.Fatalf("slots %d: event at MaxUint64 never fired", slots)
		}
		if h.w.Now() != math.MaxUint64 {
			t.Fatalf("slots %d: final time %d, want MaxUint64", slots, h.w.Now())
		}
	}
}

// TestWheelPastPanics pins the contract for scheduling behind the current
// time from outside a callback.
func TestWheelPastPanics(t *testing.T) {
	h := newHarness(8)
	h.at(5, func() {})
	h.run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtKey(3) with now=5 did not panic")
		}
	}()
	h.at(3, func() {})
}

// BenchmarkWheelChurn models the machine's event pattern: each fired event
// schedules a successor a short latency ahead, over a population of
// concurrent chains.
func BenchmarkWheelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWheel(0)
		remaining := 200_000
		var key uint64
		fire := func(ev Event) {
			if remaining <= 0 {
				return
			}
			remaining--
			key++
			w.AtKey(w.Now()+Time(13+remaining%40), key, ev)
		}
		for c := 0; c < 64; c++ {
			key++
			w.AtKey(Time(c%17), key, Event{Arg: uint32(c)})
		}
		w.RunUntil(math.MaxUint64, fire)
	}
}

// TestWheelFloodReusesSlot: a flood of events at one timestamp scheduled in
// shuffled key order (a barrier release fans out this way) fires in key
// order, and a drained slot keeps its array, so the same flood a
// revolution later allocates nothing.
func TestWheelFloodReusesSlot(t *testing.T) {
	const n = 64
	keys := rand.New(rand.NewSource(1)).Perm(n)
	w := NewWheel(0)
	var fired []uint32
	fire := func(ev Event) {
		if ev.Stage == 1 { // the starter: the flood lands next cycle
			for _, k := range keys {
				w.AtKey(w.Now()+1, uint64(k+1), Event{Stage: 2, Arg: uint32(k)})
			}
			return
		}
		fired = append(fired, ev.Arg)
	}
	flood := func() {
		fired = fired[:0]
		// Every flood starts at the same wheel offset, so it uses one slot.
		w.AtKey((w.Now()/DefaultWheelSlots+1)*DefaultWheelSlots, 0, Event{Stage: 1})
		w.RunUntil(math.MaxUint64, fire)
		if len(fired) != n {
			t.Fatalf("fired %d events, want %d", len(fired), n)
		}
		for i, k := range fired {
			if k != uint32(i) {
				t.Fatalf("event %d fired key %d: not key order", i, k+1)
			}
		}
	}
	flood()
	if a := testing.AllocsPerRun(100, flood); a != 0 {
		t.Fatalf("a repeated flood allocates %v times", a)
	}
	if c := cap(w.slots[1].run); c > 2*n {
		t.Fatalf("the flood's slot holds an array of %d events after 101 floods of %d", c, n)
	}
}
