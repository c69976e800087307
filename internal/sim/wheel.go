package sim

// DefaultWheelSlots is the wheel size NewWheel(0) selects: large enough
// that every intra-machine latency (bus, directory, mesh transit) lands in
// a slot, small enough to scan cheaply when jumping idle gaps.
const DefaultWheelSlots = 256

// witem is one scheduled event. Events are totally ordered by (at, key):
// key is an insertion sequence for At and a caller-chosen rank for AtKey,
// so equal-time events fire in a deterministic, insertion-order-independent
// sequence when keys are assigned deterministically.
type witem struct {
	at  Time
	key uint64
	fn  Event
}

func witemLess(a, b witem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// wpush adds it to the min-heap h ordered by witemLess.
func wpush(h []witem, it witem) []witem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !witemLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// wpop removes and returns the minimum of the min-heap h.
func wpop(h []witem) (witem, []witem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = witem{} // drop the callback reference
	h = h[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && witemLess(h[l], h[s]) {
			s = l
		}
		if r < n && witemLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}

// Wheel is a timing-wheel scheduler: events within the wheel's horizon hash
// into per-cycle slots (each slot a tiny heap), events beyond it wait in an
// overflow heap and migrate in as time advances. Scheduling and firing are
// O(log k) in the events sharing a timestamp, with no global heap, and
// idle gaps are jumped by scanning at most one wheel revolution.
//
// A Wheel fires equal-time events in insertion order when scheduled with
// At. AtKey additionally lets the caller impose an explicit total order on
// equal-time events — the hook the machine core uses to make event order
// independent of which shard scheduled what first.
type Wheel struct {
	slots  [][]witem // per-cycle buckets, each a (at,key) min-heap
	mask   Time
	now    Time
	auto   uint64 // At's insertion sequence (shared key space with AtKey)
	inSlot int    // events currently bucketed
	over   []witem
	fired  uint64
	curKey uint64 // ordering key of the event currently firing
}

// NewWheel returns a wheel with the given slot count (a power of two;
// 0 selects DefaultWheelSlots).
func NewWheel(slots int) *Wheel {
	if slots <= 0 {
		slots = DefaultWheelSlots
	}
	if slots&(slots-1) != 0 {
		panic("sim: wheel slot count must be a power of two")
	}
	return &Wheel{slots: make([][]witem, slots), mask: Time(slots - 1)}
}

// Now returns the current simulation time.
func (w *Wheel) Now() Time { return w.now }

// Fired returns the number of events executed so far.
func (w *Wheel) Fired() uint64 { return w.fired }

// Pending returns the number of scheduled-but-unfired events.
func (w *Wheel) Pending() int { return w.inSlot + len(w.over) }

// FiringKey returns the ordering key of the event currently being fired.
// Together with Now it identifies the firing event's position in the
// wheel's total (time, key) order — the stamp the machine core attaches to
// observability records so per-shard buffers merge back into the canonical
// global order. Outside a callback it returns the key of
// the most recently fired event (0 before the first).
func (w *Wheel) FiringKey() uint64 { return w.curKey }

// At schedules fn at absolute time t. Equal-time events scheduled with At
// fire in insertion order. Scheduling in the past panics.
func (w *Wheel) At(t Time, fn Event) {
	w.auto++
	w.insert(witem{at: t, key: w.auto, fn: fn})
}

// AtKey schedules fn at absolute time t with an explicit ordering key:
// equal-time events fire in ascending key order no matter the order they
// were inserted in. Callers must keep keys unique per timestamp (the
// machine core derives them from the scheduling cluster and its event
// sequence). Keys share one space with At's insertion sequence, so a
// caller should use either At or AtKey on a wheel, not both.
func (w *Wheel) AtKey(t Time, key uint64, fn Event) {
	w.insert(witem{at: t, key: key, fn: fn})
}

// After schedules fn to run delay cycles from now. A delay that would
// overflow Time panics: wrapping would silently schedule in the past.
func (w *Wheel) After(delay Time, fn Event) {
	t := w.now + delay
	if t < w.now {
		panic("sim: After overflows sim.Time")
	}
	w.At(t, fn)
}

func (w *Wheel) insert(it witem) {
	if it.at < w.now {
		panic("sim: scheduling event in the past")
	}
	if it.at-w.now >= Time(len(w.slots)) {
		w.over = wpush(w.over, it)
		return
	}
	s := it.at & w.mask
	w.slots[s] = wpush(w.slots[s], it)
	w.inSlot++
}

// migrate moves overflow events that have come inside the horizon into
// their slots.
func (w *Wheel) migrate() {
	horizon := Time(len(w.slots))
	for len(w.over) > 0 && w.over[0].at-w.now < horizon {
		var it witem
		it, w.over = wpop(w.over)
		s := it.at & w.mask
		w.slots[s] = wpush(w.slots[s], it)
		w.inSlot++
	}
}

// NextTime returns the earliest pending event time.
func (w *Wheel) NextTime() (Time, bool) {
	w.migrate()
	if w.inSlot > 0 {
		// Every bucketed event is within one revolution of now, so the
		// scan terminates at the first non-empty slot.
		for d := Time(0); d < Time(len(w.slots)); d++ {
			if s := w.slots[(w.now+d)&w.mask]; len(s) > 0 {
				return s[0].at, true
			}
		}
	}
	if len(w.over) > 0 {
		return w.over[0].at, true
	}
	return 0, false
}

// Step fires the next event, advancing time to it. It reports whether an
// event was fired.
func (w *Wheel) Step() bool {
	t, ok := w.NextTime()
	if !ok {
		return false
	}
	w.fire(t)
	return true
}

// fire advances to t and runs the minimum-key event scheduled there.
func (w *Wheel) fire(t Time) {
	if t > w.now {
		w.now = t
		// Advancing may bring overflow events to exactly t with smaller
		// keys than the bucketed ones; merge them before popping.
		w.migrate()
	}
	s := t & w.mask
	var it witem
	it, w.slots[s] = wpop(w.slots[s])
	w.inSlot--
	w.fired++
	w.curKey = it.key
	it.fn()
}

// Run fires events until none remain and returns the final time.
func (w *Wheel) Run() Time {
	for w.Step() {
	}
	return w.now
}

// RunUntil fires events with timestamps <= deadline (events an in-flight
// callback schedules at or before the deadline are also fired). It returns
// true if the queue drained, false if the deadline stopped it.
func (w *Wheel) RunUntil(deadline Time) bool {
	for {
		t, ok := w.NextTime()
		if !ok {
			return true
		}
		if t > deadline {
			return false
		}
		w.fire(t)
	}
}
