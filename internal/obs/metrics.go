// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) and one ring buffer, Ring,
// that records structured events (Tracer) and transaction spans
// (SpanRecorder) into pluggable sinks.
//
// The design goal is zero allocation on the simulation hot path. Metric
// handles are resolved by name once, at machine construction; recording is
// a plain field increment on the returned pointer. Emission writes into a
// preallocated ring and only touches the sink when the ring fills. A nil
// ring is the disabled state and call sites guard with a single pointer
// test, so observability costs nothing when it is off.
//
// Registries and rings are single-writer by design, like the simulator
// itself: one machine, one goroutine. Sinks shared between concurrently
// running machines (the experiment pool) must serialize internally;
// JSONLSink does.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a metric that can move both ways, with high-water tracking.
type Gauge struct {
	v   int64
	max int64
}

// Set stores v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the gauge by d (d may be negative).
func (g *Gauge) Add(d int64) { g.Set(g.v + d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max }

// Merge folds src into g: the levels add, and the high-water mark is the
// larger of the two marks — the fold Registry.Merge applies to gauges.
func (g *Gauge) Merge(src *Gauge) {
	g.v += src.v
	if src.max > g.max {
		g.max = src.max
	}
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// limits in ascending order; an implicit overflow bucket catches the rest.
// The bucket layout is fixed at creation so Observe never allocates.
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	n      uint64
	sum    uint64
	max    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v, as n calls of Observe would.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.n += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Bucket returns the count of bucket i (len(Bounds()) is the overflow
// bucket).
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper bound on the q-quantile sample (q in [0,1]):
// the bound of the bucket holding the ceil(q*n)-th sample, tightened to the
// maximum observed sample. An empty histogram returns 0; samples in the
// overflow bucket report the maximum.
func (h *Histogram) Quantile(q float64) uint64 {
	return bucketQuantile(h.bounds, h.counts, h.n, h.max, q)
}

// Merge folds src into h bucket by bucket. The result is exactly what h
// would hold had it observed every sample src did — Count, Sum, Max,
// Bucket, and therefore Quantile, all agree with sequential recording.
// The bucket layouts must match; mismatched bounds panic, since silently
// re-binning would corrupt the quantile estimates.
func (h *Histogram) Merge(src *Histogram) {
	if len(src.bounds) != len(h.bounds) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i, b := range src.bounds {
		if h.bounds[i] != b {
			panic("obs: merging histograms with different bucket layouts")
		}
	}
	for i, c := range src.counts {
		h.counts[i] += c
	}
	h.n += src.n
	h.sum += src.sum
	if src.max > h.max {
		h.max = src.max
	}
}

// bucketQuantile is the shared quantile estimator for Histogram and
// HistSnapshot.
func bucketQuantile(bounds, counts []uint64, n, max uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) && bounds[i] < max {
				return bounds[i]
			}
			return max
		}
	}
	return max
}

// DefBuckets is the default histogram layout: power-of-two-ish bounds
// suited to invalidation fan-outs and hop counts on machines up to a few
// thousand nodes.
var DefBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// LatBuckets is the histogram layout for transaction latencies in cycles:
// fine around the calibrated remote-access constants (~60-80 cycles) and
// geometric above, so contended locks and queued directories still resolve.
var LatBuckets = []uint64{
	16, 32, 48, 64, 80, 96, 128, 160, 192, 256, 384, 512,
	768, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

// QueueBuckets is the histogram layout for queue-depth samples (cycles of
// backlog at a directory controller or network ejection port, or live
// directory entries).
var QueueBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Registry holds named metrics. Lookup is get-or-create; the returned
// handles stay valid for the registry's lifetime, so hot paths resolve
// names once and then increment through the pointer.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func checkName(name string) {
	if name == "" || strings.ContainsAny(name, " \t\n\"") {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	checkName(name)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	checkName(name)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed (nil bounds selects DefBuckets). The
// bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	checkName(name)
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Merge folds every metric of src into r: counters add, gauges add with
// the high-water mark taken as the max of the two marks, histograms merge
// bucket-wise (created with src's bounds when absent from r). The machine
// uses it to copy its registry for an in-run live snapshot.
func (r *Registry) Merge(src *Registry) {
	for name, c := range src.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		r.Gauge(name).Merge(g)
	}
	for name, h := range src.hists {
		r.Histogram(name, h.bounds).Merge(h)
	}
}

// HistSnapshot is the frozen state of one histogram.
type HistSnapshot struct {
	Bounds []uint64
	Counts []uint64
	N      uint64
	Sum    uint64
	Max    uint64
}

// Snapshot is a frozen, read-only copy of a registry's metrics.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	GaugeMax map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		GaugeMax: make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
		s.GaugeMax[name] = g.max
	}
	for name, h := range r.hists {
		s.Hists[name] = HistSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			N:      h.n,
			Sum:    h.sum,
			Max:    h.max,
		}
	}
	return s
}

// Counter returns the snapshotted counter value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// WriteText renders the snapshot as sorted "name value" lines, one metric
// per line — a stable format for -metrics dumps and tests.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d (max %d)", name, v, s.GaugeMax[name]))
	}
	for name, h := range s.Hists {
		lines = append(lines, fmt.Sprintf("%s count %d sum %d mean %.2f p50 %d p95 %d p99 %d max %d",
			name, h.N, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the histogram snapshot's average sample.
func (h HistSnapshot) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an upper bound on the q-quantile sample, as
// Histogram.Quantile does.
func (h HistSnapshot) Quantile(q float64) uint64 {
	return bucketQuantile(h.Bounds, h.Counts, h.N, h.Max, q)
}

// String renders the snapshot as WriteText does.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}
