package obs

// Ring buffers recorded items in a fixed array and hands each full batch
// to its sink. It is the one recording path of both trace streams: a
// Tracer is a ring of events and a SpanRecorder a ring of spans. A nil
// *Ring is the disabled state: call sites guard emission with a nil test,
// so recording that is off costs one branch.
type Ring[T any] struct {
	buf []T
	n   int
	// flush hands the pending batch to the sink. It is a closure, not a
	// method, so that Emit stays within the inliner's budget: a call to a
	// method of a generic type costs Emit a dictionary argument.
	flush func()
	err   error // sticky first sink error
}

// Tracer records coherence-protocol events.
type Tracer = Ring[Event]

// SpanRecorder records finished transaction spans.
type SpanRecorder = Ring[Span]

// DefaultRingCap is the default ring capacity.
const DefaultRingCap = 4096

// NewTracer returns an event ring writing to sink. ringCap <= 0 selects
// DefaultRingCap.
func NewTracer(sink Sink, ringCap int) *Tracer { return newRing(sink.Write, ringCap) }

// NewSpanRecorder returns a span ring writing to sink. ringCap <= 0
// selects DefaultRingCap.
func NewSpanRecorder(sink SpanSink, ringCap int) *SpanRecorder {
	return newRing(sink.WriteSpans, ringCap)
}

func newRing[T any](write func([]T) error, ringCap int) *Ring[T] {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	r := &Ring[T]{buf: make([]T, ringCap)}
	r.flush = func() {
		if r.n == 0 {
			return
		}
		if err := write(r.buf[:r.n]); err != nil && r.err == nil {
			r.err = err
		}
		r.n = 0
	}
	return r
}

// Emit records one item. It never allocates; when the ring fills the
// pending batch is handed to the sink and the ring restarts.
func (r *Ring[T]) Emit(v T) {
	r.buf[r.n] = v
	r.n++
	if r.n == len(r.buf) {
		r.flush()
	}
}

// Flush drains the pending partial batch to the sink and returns the
// first error the sink ever reported. Flushing a nil ring does nothing.
func (r *Ring[T]) Flush() error {
	if r == nil {
		return nil
	}
	r.flush()
	return r.err
}

// SpanSink consumes batches of finished spans: all a span recorder needs
// of its sink.
type SpanSink interface {
	WriteSpans(batch []Span) error
}

// Sink consumes batches of both recorded kinds: events through Write and
// spans through WriteSpans. A batch holds items in emission order; its
// slice belongs to the ring and must not be retained. A sink shared by
// concurrently running rings must serialize its writes internally, as
// JSONLSink does.
type Sink interface {
	SpanSink
	Write(batch []Event) error
}

// Discard is the disabled sink: it drops every batch.
var Discard Sink = discard{}

type discard struct{}

func (discard) Write([]Event) error     { return nil }
func (discard) WriteSpans([]Span) error { return nil }

// MemSink collects every event and span in memory, for tests.
type MemSink struct {
	Events []Event
	Spans  []Span
}

// Write implements Sink.
func (s *MemSink) Write(batch []Event) error {
	s.Events = append(s.Events, batch...)
	return nil
}

// WriteSpans implements Sink.
func (s *MemSink) WriteSpans(batch []Span) error {
	s.Spans = append(s.Spans, batch...)
	return nil
}
