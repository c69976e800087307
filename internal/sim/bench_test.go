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
