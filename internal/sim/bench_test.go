package sim

import (
	"math"
	"testing"
)

// BenchmarkWheelThroughput measures raw event throughput with a steady
// queue depth, the dominant cost of large simulations.
func BenchmarkWheelThroughput(b *testing.B) {
	w := NewWheel(0)
	const depth = 1024
	var key uint64
	for i := 0; i < depth; i++ {
		key++
		w.AtKey(Time(i), key, Event{})
	}
	fire := func(Event) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key++
		w.AtKey(w.Now()+depth, key, Event{}) // keep the queue at constant depth
		next, _ := w.NextTime()
		w.RunUntil(next, fire) // the events of the next timestamp
	}
}

func BenchmarkWheelBurst(b *testing.B) {
	b.ReportAllocs()
	fire := func(Event) {}
	for i := 0; i < b.N; i++ {
		w := NewWheel(0)
		for j := 0; j < 1000; j++ {
			w.AtKey(Time(j%17), uint64(j), Event{})
		}
		w.RunUntil(math.MaxUint64, fire)
	}
}

// BenchmarkWheelKeyOrder measures what ordering equal-time events by key
// costs a push. One deterministic schedule runs under two key rules. 32
// clusters keep two events in flight each, and every fired event schedules
// its successor 1, 2, 8, 12-24 or 23 cycles ahead; a 12-24 cycle transit
// lands on a random cluster, the others on the firing one. "cluster" keys
// an event like the machine core, cluster<<40 | that cluster's sequence,
// so a push behind a larger key in its slot shifts it up; "global" keys
// every event from one increasing counter, so every push appends. One op
// is one event scheduled and fired; queued/push is how many events a push
// finds in its slot (3.0 at paper-32).
func BenchmarkWheelKeyOrder(b *testing.B) {
	for _, mode := range []struct {
		name    string
		cluster bool
	}{{"cluster", true}, {"global", false}} {
		b.Run(mode.name, func(b *testing.B) {
			const clusters = 32
			w := NewWheel(0)
			var seq [clusters]uint64
			var global uint64
			rnd := uint64(0x9e3779b97f4a7c15)
			draw := func() uint64 { // xorshift64
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return rnd
			}
			scheduled, queued := 0, 0
			schedule := func(c uint32) {
				var key uint64
				if mode.cluster {
					seq[c]++
					key = uint64(c)<<40 | seq[c]
				} else {
					global++
					key = global
				}
				r := draw()
				var d Time
				to := c
				switch r % 5 {
				case 0:
					d = 1
				case 1:
					d = 2
				case 2:
					d = 8
				case 3:
					d, to = 12+Time(r>>8%13), uint32(r>>16%clusters)
				case 4:
					d = 23
				}
				queued += w.slots[(w.Now()+d)&w.mask].len()
				w.AtKey(w.Now()+d, key, Event{Arg: to})
				scheduled++
			}
			fire := func(ev Event) {
				if scheduled < b.N {
					schedule(ev.Arg)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < 2*clusters && scheduled < b.N; i++ {
				schedule(uint32(i % clusters))
			}
			w.RunUntil(math.MaxUint64, fire)
			if w.Fired() != uint64(b.N) {
				b.Fatalf("fired %d events, want %d", w.Fired(), b.N)
			}
			b.ReportMetric(float64(queued)/float64(b.N), "queued/push")
		})
	}
}
