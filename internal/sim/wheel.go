package sim

// DefaultWheelSlots is the wheel size NewWheel(0) selects: large enough
// that every intra-machine latency (bus, directory, mesh transit) lands in
// a slot, small enough to scan cheaply when jumping idle gaps.
const DefaultWheelSlots = 256

// witem is one bucketed event. A slot only ever holds events of one
// timestamp (see Wheel), so a slot orders by key alone and the item
// carries no time.
type witem struct {
	key uint64
	ev  Event
}

// oitem is one event waiting in the overflow heap, ordered by (at, key).
type oitem struct {
	at  Time
	key uint64
	ev  Event
}

func oitemLess(a, b oitem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// slot is one cycle's bucket: its events in ascending key order, of which
// the first head have fired.
type slot struct {
	run  []witem
	head int
}

// len returns the number of events in s not yet fired.
func (s *slot) len() int { return len(s.run) - s.head }

// push inserts it in key order. Keys mostly arrive ascending (each cluster
// numbers its events in sequence), so the common push is an append; an
// item with a smaller key shifts the larger ones up one place.
func (s *slot) push(it witem) {
	s.run = append(s.run, it)
	i := len(s.run) - 1
	for i > s.head && s.run[i-1].key > it.key {
		s.run[i] = s.run[i-1]
		i--
	}
	s.run[i] = it
}

// pop removes and returns the smallest-key event of the non-empty slot s.
// A drained slot rewinds, so its array serves the next revolution.
func (s *slot) pop() witem {
	it := s.run[s.head]
	s.head++
	if s.head == len(s.run) {
		s.run, s.head = s.run[:0], 0
	}
	return it
}

// opush adds it to the (at, key)-ordered overflow min-heap h.
func opush(h []oitem, it oitem) []oitem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !oitemLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// opop removes and returns the minimum of the overflow min-heap h.
func opop(h []oitem) (oitem, []oitem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && oitemLess(h[l], h[s]) {
			s = l
		}
		if r < n && oitemLess(h[r], h[s]) {
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
// into per-cycle slots (each slot a key-ordered run), events beyond it wait
// in an overflow heap and migrate in as time advances. Firing takes a
// slot's head in O(1), however many events share the timestamp; scheduling
// appends, or shifts the larger keys of its slot up one place. There is no
// global heap, and idle gaps are jumped by scanning at most one wheel
// revolution.
//
// A bucketed event lies less than one revolution ahead of now, so a slot
// holds events of exactly one timestamp, and every event at now is in
// now's slot: advancing time migrates each overflow event that comes
// inside the horizon. Draining the current slot therefore needs no scan.
//
// Equal-time events fire in ascending key order no matter the order they
// were inserted in — the hook the machine core uses to order them by
// scheduling cluster and per-cluster sequence.
type Wheel struct {
	slots  []slot // per-cycle buckets
	mask   Time
	now    Time
	inSlot int // events currently bucketed
	over   []oitem
	fired  uint64
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
	return &Wheel{slots: make([]slot, slots), mask: Time(slots - 1)}
}

// Now returns the current simulation time.
func (w *Wheel) Now() Time { return w.now }

// Fired returns the number of events executed so far.
func (w *Wheel) Fired() uint64 { return w.fired }

// Pending returns the number of scheduled-but-unfired events.
func (w *Wheel) Pending() int { return w.inSlot + len(w.over) }

// AtKey schedules ev at absolute time t with an ordering key: equal-time
// events fire in ascending key order no matter the order they were
// inserted in. Callers must keep keys unique per timestamp (the machine
// core derives them from the scheduling cluster and its event sequence).
// Scheduling in the past panics.
func (w *Wheel) AtKey(t Time, key uint64, ev Event) {
	if t < w.now {
		panic("sim: scheduling event in the past")
	}
	if t-w.now >= Time(len(w.slots)) {
		w.over = opush(w.over, oitem{at: t, key: key, ev: ev})
		return
	}
	w.slots[t&w.mask].push(witem{key: key, ev: ev})
	w.inSlot++
}

// advance moves time to t and migrates the overflow events that come
// inside the horizon into their slots.
func (w *Wheel) advance(t Time) {
	w.now = t
	horizon := Time(len(w.slots))
	for len(w.over) > 0 && w.over[0].at-t < horizon {
		var it oitem
		it, w.over = opop(w.over)
		w.slots[it.at&w.mask].push(witem{key: it.key, ev: it.ev})
		w.inSlot++
	}
}

// NextTime returns the earliest pending event time.
func (w *Wheel) NextTime() (Time, bool) {
	if w.inSlot > 0 {
		// Every bucketed event is within one revolution of now, so the
		// scan terminates at the first non-empty slot.
		for d := Time(0); d < Time(len(w.slots)); d++ {
			if w.slots[(w.now+d)&w.mask].len() > 0 {
				return w.now + d, true
			}
		}
	}
	if len(w.over) > 0 {
		return w.over[0].at, true
	}
	return 0, false
}

// RunUntil fires events with timestamps <= deadline, in (time, key)
// order, handing each to fire; events fire schedules at or before the
// deadline fire too. It drains the current slot without a scan and looks
// for the next occupied slot only once the current one is empty. It
// returns true if the queue drained, false if the deadline stopped it.
func (w *Wheel) RunUntil(deadline Time, fire func(Event)) bool {
	for {
		s := &w.slots[w.now&w.mask]
		if s.len() == 0 {
			t, ok := w.NextTime()
			if !ok {
				return true
			}
			if t > deadline {
				return false
			}
			w.advance(t)
			s = &w.slots[t&w.mask]
		} else if w.now > deadline {
			return false
		}
		it := s.pop()
		w.inSlot--
		w.fired++
		fire(it.ev)
	}
}
