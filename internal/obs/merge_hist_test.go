package obs

import (
	"reflect"
	"testing"
)

// histEqual compares full histogram state: buckets, count, sum, max, and
// the derived quantiles.
func histEqual(t *testing.T, got, want *Histogram) {
	t.Helper()
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatalf("bucket counts %v, want %v", got.counts, want.counts)
	}
	if got.n != want.n || got.sum != want.sum || got.max != want.max {
		t.Fatalf("n/sum/max = %d/%d/%d, want %d/%d/%d",
			got.n, got.sum, got.max, want.n, want.sum, want.max)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("Quantile(%v) = %d, want %d", q, g, w)
		}
	}
}

func TestHistogramMergeEmptySource(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", DefBuckets)
	for _, v := range []uint64{1, 5, 9000} {
		h.Observe(v)
	}
	want := *h
	wantCounts := append([]uint64(nil), h.counts...)
	h.Merge(NewRegistry().Histogram("empty", DefBuckets))
	want.counts = wantCounts
	histEqual(t, h, &want)
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	r := NewRegistry()
	src := r.Histogram("src", DefBuckets)
	for _, v := range []uint64{0, 2, 1024, 5000} {
		src.Observe(v)
	}
	dst := r.Histogram("dst", DefBuckets)
	dst.Merge(src)
	histEqual(t, dst, src)
}

func TestHistogramMergeOverflowBucket(t *testing.T) {
	// Samples past the last bound land in the overflow bucket and must
	// survive the merge, including the max that Quantile reports for them.
	r := NewRegistry()
	a := r.Histogram("a", []uint64{1, 2})
	b := r.Histogram("b", []uint64{1, 2})
	a.Observe(100)
	b.Observe(500)
	a.Merge(b)
	if got := a.Bucket(2); got != 2 {
		t.Fatalf("overflow bucket = %d, want 2", got)
	}
	if got := a.Quantile(1); got != 500 {
		t.Fatalf("Quantile(1) = %d, want 500 (merged max)", got)
	}
}

func TestHistogramMergeSingleObservation(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a", LatBuckets)
	b := r.Histogram("b", LatBuckets)
	b.Observe(77)
	a.Merge(b)
	seq := r.Histogram("seq", LatBuckets)
	seq.Observe(77)
	histEqual(t, a, seq)
}

func TestHistogramMergeMismatchedBoundsPanics(t *testing.T) {
	r := NewRegistry()
	for name, bounds := range map[string][]uint64{
		"short":   {1, 2},
		"shifted": {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 2048},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("merge of mismatched layouts did not panic")
				}
			}()
			r.Histogram("dst-"+name, DefBuckets).Merge(r.Histogram("src-"+name, bounds))
		})
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only.b").Inc()
	a.Gauge("g").Set(10)
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(5)
	b.Gauge("g").Set(1)
	a.Histogram("h", DefBuckets).Observe(7)
	b.Histogram("h", DefBuckets).Observe(9)
	b.Histogram("h.only.b", LatBuckets).Observe(100)

	a.Merge(b)
	if got := a.Counter("c").Value(); got != 7 {
		t.Fatalf("counter c = %d, want 7", got)
	}
	if got := a.Counter("only.b").Value(); got != 1 {
		t.Fatalf("counter only.b = %d, want 1", got)
	}
	if g := a.Gauge("g"); g.Value() != 3 || g.Max() != 10 {
		t.Fatalf("gauge g = %d (max %d), want 3 (max 10)", g.Value(), g.Max())
	}
	h := a.Histogram("h", DefBuckets)
	if h.Count() != 2 || h.Sum() != 16 || h.Max() != 9 {
		t.Fatalf("hist h n/sum/max = %d/%d/%d, want 2/16/9", h.Count(), h.Sum(), h.Max())
	}
	if got := a.Histogram("h.only.b", LatBuckets).Count(); got != 1 {
		t.Fatalf("hist h.only.b n = %d, want 1", got)
	}
}

// FuzzHistogramMerge asserts the merge identity registry copies rely on:
// recording a sample sequence split across two histograms and
// merging them is indistinguishable — buckets, count, sum, max, quantiles —
// from recording the whole sequence into one histogram.
func FuzzHistogramMerge(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		r := NewRegistry()
		whole := r.Histogram("whole", DefBuckets)
		left := r.Histogram("left", DefBuckets)
		right := r.Histogram("right", DefBuckets)
		for i, raw := range data {
			// Spread samples across the bucket range, overflow included.
			v := uint64(raw) * uint64(raw)
			whole.Observe(v)
			if i < cut {
				left.Observe(v)
			} else {
				right.Observe(v)
			}
		}
		left.Merge(right)
		histEqual(t, left, whole)
	})
}
