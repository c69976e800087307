package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestTxClassPhaseRoundTrip(t *testing.T) {
	for c := TxClass(0); c < numTxClasses; c++ {
		got, err := ParseTxClass(c.String())
		if err != nil || got != c {
			t.Fatalf("class round trip %v: got %v, %v", c, got, err)
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		got, err := ParsePhase(p.String())
		if err != nil || got != p {
			t.Fatalf("phase round trip %v: got %v, %v", p, got, err)
		}
	}
	var ce *UnknownTxClassError
	if _, err := ParseTxClass("nope"); !errors.As(err, &ce) {
		t.Fatalf("ParseTxClass error = %v, want *UnknownTxClassError", err)
	} else if ce.Name != "nope" || len(ce.Valid) != NumTxClasses {
		t.Fatalf("error fields %+v", ce)
	}
	var pe *UnknownPhaseError
	if _, err := ParsePhase("nope"); !errors.As(err, &pe) {
		t.Fatalf("ParsePhase error = %v, want *UnknownPhaseError", err)
	}
}

func TestParseEventKindTypedError(t *testing.T) {
	var ke *UnknownEventKindError
	_, err := ParseEventKind("bogus")
	if !errors.As(err, &ke) {
		t.Fatalf("ParseEventKind error = %v, want *UnknownEventKindError", err)
	}
	if ke.Name != "bogus" {
		t.Fatalf("error Name = %q, want bogus", ke.Name)
	}
	if len(ke.Valid) != int(numEventKinds) {
		t.Fatalf("error Valid has %d names, want %d", len(ke.Valid), numEventKinds)
	}
	for _, name := range ke.Valid {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error message %q does not list %q", err.Error(), name)
		}
	}
}

func TestPhaseAsync(t *testing.T) {
	if !PhAckGather.Async(TxWrite) || !PhAckGather.Async(TxRead) {
		t.Fatal("ack.gather must be async for read/write transactions")
	}
	if PhAckGather.Async(TxEvict) {
		t.Fatal("ack.gather is the critical path of an eviction, not async")
	}
	if PhDirWait.Async(TxWrite) || PhReplyTravel.Async(TxEvict) {
		t.Fatal("only ack.gather is ever async")
	}
}

func TestSpanRecorderRingFlush(t *testing.T) {
	mem := &MemSink{}
	r := NewSpanRecorder(mem, 4)
	for i := 0; i < 10; i++ {
		r.Emit(Span{Tx: uint64(i + 1), Start: uint64(i), End: uint64(i + 1)})
	}
	if len(mem.Spans) != 8 {
		t.Fatalf("sink saw %d spans before Flush, want 8", len(mem.Spans))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(mem.Spans) != 10 {
		t.Fatalf("sink saw %d spans after Flush, want 10", len(mem.Spans))
	}
	for i, s := range mem.Spans {
		if s.Start != uint64(i) {
			t.Fatalf("span %d has Start=%d; order not preserved", i, s.Start)
		}
	}
}

func TestNilSpanRecorder(t *testing.T) {
	var r *SpanRecorder
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLSpanEncoding(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sub := sink.Sub("LU/Dir3CV2")
	r := NewSpanRecorder(sub, 2)
	const root = 1
	r.Emit(Span{Tx: root, ID: 2, Parent: root, Class: TxWrite, Phase: PhFanout,
		Node: 3, Block: 97, Start: 412, End: 440, N: 5})
	r.Emit(Span{Tx: root, ID: root, Class: TxWrite, Phase: PhTotal,
		Node: 3, Block: 97, Start: 400, End: 460, N: 5})
	// Events and spans share one writer without corrupting either stream.
	tr := NewTracer(sub, 2)
	tr.Emit(Event{T: 412, Node: 3, Kind: EvInvalFanout, Block: 97, Arg: 5})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var rec struct {
		Run    string `json:"run"`
		Tx     uint64 `json:"tx"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Class  string `json:"class"`
		Phase  string `json:"phase"`
		Node   int32  `json:"node"`
		Block  int64  `json:"block"`
		Start  uint64 `json:"start"`
		End    uint64 `json:"end"`
		N      int64  `json:"n"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("span line not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.Run != "LU/Dir3CV2" || rec.Tx != 1 || rec.Span != 2 || rec.Parent != 1 ||
		rec.Class != "write" || rec.Phase != "fanout" || rec.Node != 3 || rec.Block != 97 ||
		rec.Start != 412 || rec.End != 440 || rec.N != 5 {
		t.Fatalf("decoded %+v", rec)
	}
	if c, err := ParseTxClass(rec.Class); err != nil || c != TxWrite {
		t.Fatalf("ParseTxClass(%q) = %v, %v", rec.Class, c, err)
	}
	if p, err := ParsePhase(rec.Phase); err != nil || p != PhFanout {
		t.Fatalf("ParsePhase(%q) = %v, %v", rec.Phase, p, err)
	}
	// The root line keeps parent 0; the event line is distinguishable by
	// its "ev" key.
	if !strings.Contains(lines[1], `"parent":0`) {
		t.Fatalf("root line lost parent 0: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"ev":"inval.fanout"`) {
		t.Fatalf("event line missing: %s", lines[2])
	}
}

func BenchmarkSpanEmitDiscard(b *testing.B) {
	r := NewSpanRecorder(Discard, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Span{Tx: uint64(i), ID: uint64(i), Start: uint64(i), End: uint64(i + 9)})
	}
}
