package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msg.request")
	c.Inc()
	c.Add(4)
	if got := r.Counter("msg.request").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("rac.pending")
	g.Add(3)
	g.Add(-1)
	g.Set(7)
	g.Add(-7)
	if g.Value() != 0 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 0 max 7", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inval.fanout", []uint64{0, 2, 8})
	for _, v := range []uint64{0, 1, 2, 3, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{1, 2, 2, 2} // <=0, <=2, <=8, overflow
	for i, w := range want {
		if h.Bucket(i) != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Bucket(i), w)
		}
	}
	if h.Count() != 7 || h.Sum() != 123 {
		t.Fatalf("count %d sum %d, want 7, 123", h.Count(), h.Sum())
	}
}

// TestHistogramQuantileEdges covers the percentile estimator's corner
// cases: empty histogram, a single sample, every sample in the overflow
// bucket, and samples landing exactly on bucket boundaries.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()

	empty := r.Histogram("empty", []uint64{1, 2})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}

	// A single sample is every quantile, even though its bucket bound (4)
	// is looser than the sample itself.
	single := r.Histogram("single", []uint64{0, 1, 2, 4, 8})
	single.Observe(3)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 3 {
			t.Errorf("single.Quantile(%v) = %d, want 3", q, got)
		}
	}
	if single.Max() != 3 {
		t.Errorf("single.Max() = %d, want 3", single.Max())
	}

	// All samples beyond the last bound land in the overflow bucket; the
	// only honest answer there is the maximum observed.
	over := r.Histogram("over", []uint64{1, 2})
	over.Observe(100)
	over.Observe(200)
	over.Observe(300)
	if got := over.Quantile(0.5); got != 300 {
		t.Errorf("over.Quantile(0.5) = %d, want 300 (max)", got)
	}
	if got := over.Quantile(1); got != 300 {
		t.Errorf("over.Quantile(1) = %d, want 300", got)
	}

	// Boundary values: a sample equal to a bound counts inside that
	// bucket, so the quantile reports the bound exactly.
	edge := r.Histogram("edge", []uint64{10, 20, 30})
	for _, v := range []uint64{10, 20, 30} {
		edge.Observe(v)
	}
	for i, want := range []uint64{10, 20, 30} {
		q := float64(i+1) / 3
		if got := edge.Quantile(q); got != want {
			t.Errorf("edge.Quantile(%v) = %d, want %d", q, got, want)
		}
	}

	// Quantiles survive the snapshot.
	snap := r.Snapshot().Hists["edge"]
	if snap.Max != 30 || snap.Quantile(0.5) != 20 {
		t.Errorf("snapshot: max %d quantile(0.5) %d, want 30, 20", snap.Max, snap.Quantile(0.5))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned different counters")
	}
	if r.Histogram("h", nil) != r.Histogram("h", []uint64{1}) {
		t.Fatal("existing histogram was replaced")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric name did not panic")
		}
	}()
	r.Counter("has space")
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Inc()
	r.Gauge("g").Set(3)
	r.Histogram("h", []uint64{1}).Observe(1)
	s := r.Snapshot()
	text := s.String()
	want := "a.one 1\nb.two 2\ng 3 (max 3)\nh count 1 sum 1 mean 1.00 p50 1 p95 1 p99 1 max 1\n"
	if text != want {
		t.Fatalf("snapshot text:\n%s\nwant:\n%s", text, want)
	}
	if s.Counter("a.one") != 1 || s.Counter("missing") != 0 {
		t.Fatal("snapshot counter lookup wrong")
	}
	// The snapshot is frozen: later increments must not leak in.
	r.Counter("a.one").Add(10)
	if s.Counter("a.one") != 1 {
		t.Fatal("snapshot not isolated from registry")
	}
}

func TestTracerRingFlush(t *testing.T) {
	mem := &MemSink{}
	tr := NewTracer(mem, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: uint64(i), Kind: EvReqIssue})
	}
	if len(mem.Events) != 8 {
		t.Fatalf("sink saw %d events before Flush, want 8 (two full rings)", len(mem.Events))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(mem.Events) != 10 {
		t.Fatalf("sink saw %d events after Flush, want 10", len(mem.Events))
	}
	for i, ev := range mem.Events {
		if ev.T != uint64(i) {
			t.Fatalf("event %d has T=%d; order not preserved", i, ev.T)
		}
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sub := sink.Sub("LU/Dir32")
	tr := NewTracer(sub, 2)
	tr.Emit(Event{T: 5, Node: 1, Kind: EvInvalFanout, Block: 9, Arg: 3})
	tr.Emit(Event{T: 6, Node: 2, Kind: EvRetry, Block: 64})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec struct {
		Run   string `json:"run"`
		T     uint64 `json:"t"`
		Node  int32  `json:"node"`
		Ev    string `json:"ev"`
		Block int64  `json:"block"`
		N     int64  `json:"n"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.Run != "LU/Dir32" || rec.T != 5 || rec.Node != 1 || rec.Ev != "inval.fanout" || rec.Block != 9 || rec.N != 3 {
		t.Fatalf("decoded %+v", rec)
	}
	kind, err := ParseEventKind(rec.Ev)
	if err != nil || kind != EvInvalFanout {
		t.Fatalf("ParseEventKind(%q) = %v, %v", rec.Ev, kind, err)
	}
}

// TestJSONLSinkFlush: Flush pushes completed lines through the bufio
// layer without closing, so a reader tailing the output sees them; Sub
// views flush the shared writer.
func TestJSONLSinkFlush(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sub := sink.Sub("r")
	if err := sub.WriteLine(`{"k":1}`); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("line reached the writer before Flush: %q", buf.String())
	}
	if err := sub.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"k\":1}\n" {
		t.Fatalf("after Flush: %q", got)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEventKindNamesRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		got, err := ParseEventKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseEventKind("nope"); err == nil {
		t.Fatal("unknown kind did not error")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTracerEmitDiscard(b *testing.B) {
	tr := NewTracer(Discard, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{T: uint64(i), Kind: EvDirLookup, Block: int64(i)})
	}
}

// TestJSONLStringsEncoded: run labels holding control bytes, DEL or
// invalid UTF-8 still give lines that decode, and the label round-trips
// (invalid UTF-8 as U+FFFD). A printable ASCII label keeps the bytes
// Go's %q gives it, <, > and & included.
func TestJSONLStringsEncoded(t *testing.T) {
	for _, tc := range []struct {
		label     string
		printable bool
	}{
		{"bell\arun", false}, {"nul\x00", false}, {"tab\vv", false}, {"del\x7f", false},
		{"bad\xffutf8", false}, {`q"b\s`, true}, {"LU/<Dir&3>", true},
	} {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		sub := sink.Sub(tc.label)
		if err := sub.Write([]Event{{T: 1, Kind: EvRetry}}); err != nil {
			t.Fatal(err)
		}
		if err := sub.WriteSpans([]Span{{Tx: 1, ID: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		want := strings.ToValidUTF8(tc.label, "\uFFFD")
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec struct{ Run string }
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("label %q: line %q: %v", tc.label, line, err)
			}
			if rec.Run != want {
				t.Fatalf("label %q decoded as %q, want %q", tc.label, rec.Run, want)
			}
			if q := fmt.Sprintf(`{"run":%q,`, tc.label); tc.printable && !strings.HasPrefix(line, q) {
				t.Fatalf("line %s does not start %s", line, q)
			}
		}
	}
}
