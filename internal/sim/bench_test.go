package sim

import "testing"

// BenchmarkWheelThroughput measures raw event throughput with a steady
// queue depth, the dominant cost of large simulations.
func BenchmarkWheelThroughput(b *testing.B) {
	e := NewWheel(0)
	const depth = 1024
	fire := func() {}
	for i := 0; i < depth; i++ {
		e.At(Time(i), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(depth, fire) // keep the queue at constant depth
		e.Step()
	}
}

func BenchmarkWheelBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewWheel(0)
		for j := 0; j < 1000; j++ {
			e.At(Time(j%17), func() {})
		}
		e.Run()
	}
}
