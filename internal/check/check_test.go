package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dircoh/internal/obs"
)

func TestRuleNamesAndMetrics(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumRules; i++ {
		r := Rule(i)
		name := r.String()
		if name == "" || strings.HasPrefix(name, "Rule(") {
			t.Errorf("rule %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
		if got, want := r.MetricName(), "check.violation."+name; got != want {
			t.Errorf("MetricName() = %q, want %q", got, want)
		}
	}
	if got := Rule(200).String(); got != "Rule(200)" {
		t.Errorf("out-of-range rule: %q", got)
	}
}

func TestViolationError(t *testing.T) {
	v := Violation{Rule: RuleCoverage, Tx: 12, Block: 97, Node: 3, Cycle: 412, Detail: "stale copy"}
	msg := v.Error()
	for _, want := range []string{"dir.coverage", "t=412", "node=3", "block=97", "tx=12", "stale copy"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

// lineBuf implements LineWriter, collecting lines.
type lineBuf struct {
	lines []string
	err   error
}

func (b *lineBuf) WriteLine(line string) error {
	if b.err != nil {
		return b.err
	}
	b.lines = append(b.lines, line)
	return nil
}

func TestJSONLSink(t *testing.T) {
	buf := &lineBuf{}
	s := NewJSONLSink(buf, "LU/Dir32")
	v := Violation{Rule: RuleRecall, Tx: 7, Block: 5, Node: 1, Cycle: 99, Detail: `quoted "detail"`}
	if err := s.WriteViolation(v); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Run    string `json:"run"`
		Check  string `json:"check"`
		T      uint64 `json:"t"`
		Node   int32  `json:"node"`
		Block  int64  `json:"block"`
		Tx     uint64 `json:"tx"`
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal([]byte(buf.lines[0]), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, buf.lines[0])
	}
	if rec.Run != "LU/Dir32" || rec.Check != "recall" || rec.T != 99 ||
		rec.Node != 1 || rec.Block != 5 || rec.Tx != 7 || rec.Detail != `quoted "detail"` {
		t.Fatalf("bad record: %+v", rec)
	}

	// Empty run label omits the field entirely.
	buf2 := &lineBuf{}
	if err := NewJSONLSink(buf2, "").WriteViolation(v); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.lines[0], `"run"`) {
		t.Fatalf("empty run label should omit the field: %s", buf2.lines[0])
	}
}

func TestWriterSink(t *testing.T) {
	var sb strings.Builder
	s := NewWriterSink(&sb, "MP3D/full")
	if err := s.WriteViolation(Violation{Rule: RuleAck, Detail: "lost ack"}); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); !strings.HasPrefix(got, "MP3D/full: check: ack") || !strings.Contains(got, "lost ack") {
		t.Fatalf("writer sink line: %q", got)
	}
}

func TestRecorderCountersAndCap(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(reg, nil, 4)
	for i := 0; i < maxStored+10; i++ {
		r.Violationf(RuleSingleWriter, 0, int64(i), uint64(i), "v%d", i)
	}
	if r.Count() != uint64(maxStored+10) {
		t.Fatalf("Count = %d, want %d", r.Count(), maxStored+10)
	}
	if len(r.Violations()) != maxStored {
		t.Fatalf("stored %d violations, cap is %d", len(r.Violations()), maxStored)
	}
	if got := reg.Counter(RuleSingleWriter.MetricName()).Value(); got != uint64(maxStored+10) {
		t.Fatalf("registry counter = %d, want %d", got, maxStored+10)
	}
}

func TestRecorderStickySinkErr(t *testing.T) {
	buf := &lineBuf{err: errors.New("disk full")}
	r := NewRecorder(nil, NewJSONLSink(buf, ""), 4)
	r.Violationf(RuleProtocol, -1, -1, 0, "first")
	buf.err = fmt.Errorf("second error")
	r.Violationf(RuleProtocol, -1, -1, 0, "second")
	if r.SinkErr() == nil || r.SinkErr().Error() != "disk full" {
		t.Fatalf("SinkErr = %v, want the first error to stick", r.SinkErr())
	}
}

func TestInvalBookkeeping(t *testing.T) {
	r := NewRecorder(nil, nil, 4)
	r.InvalSent(9, 2)
	if r.Block(9).Inflight() != 2 {
		t.Fatalf("Inflight = %d, want 2", r.Block(9).Inflight())
	}
	r.InvalApplied(9, 10)
	r.InvalApplied(9, 11)
	if r.Block(9).Inflight() != 0 || r.Count() != 0 {
		t.Fatalf("drain should be clean: inflight=%d count=%d", r.Block(9).Inflight(), r.Count())
	}
	// An application with none in flight is an ack-conservation violation.
	r.InvalApplied(9, 12)
	if r.Count() != 1 || r.Violations()[0].Rule != RuleAck {
		t.Fatalf("unexpected violations: %v", r.Violations())
	}
	// Non-positive sends are ignored, not stored as zero entries.
	r.InvalSent(10, 0)
	if r.Block(10) != nil {
		t.Fatal("zero send must not track")
	}
}

func TestAckBookkeeping(t *testing.T) {
	r := NewRecorder(nil, nil, 4)
	r.AckExpect(2, 2)
	r.AckArrived(2, 5)
	r.Drained(2, 6) // one still outstanding: violation
	if r.Count() != 1 || !strings.Contains(r.Violations()[0].Detail, "1 acknowledgements") {
		t.Fatalf("expected a premature-drain violation, got %v", r.Violations())
	}
	// Drained resets the shadow count; a further ack is now a double-ack.
	r.AckArrived(2, 7)
	if r.Count() != 2 || !strings.Contains(r.Violations()[1].Detail, "more invalidations than were sent") {
		t.Fatalf("expected a double-ack violation, got %v", r.Violations())
	}
}

func TestFinishChecks(t *testing.T) {
	r := NewRecorder(nil, nil, 4)
	r.InvalSent(3, 1) // never applied
	r.AckExpect(1, 2) // never acknowledged
	r.ExtraInval()    // checker counted 1, machine will claim 5
	r.Finish(5, 1000)
	var rules []Rule
	for _, v := range r.Violations() {
		rules = append(rules, v.Rule)
	}
	want := map[Rule]int{RuleAck: 2, RuleAccounting: 1}
	got := map[Rule]int{}
	for _, ru := range rules {
		got[ru]++
	}
	for ru, n := range want {
		if got[ru] != n {
			t.Fatalf("Finish violations by rule: got %v, want %v (all: %v)", got, want, r.Violations())
		}
	}
}

func TestOpenTxContext(t *testing.T) {
	r := NewRecorder(nil, nil, 4)
	r.OpenTx(4, 17)
	r.Violationf(RuleCoverage, 0, 4, 50, "while tx open")
	if r.Violations()[0].Tx != 17 {
		t.Fatalf("violation should carry the open tx, got %d", r.Violations()[0].Tx)
	}
	r.CloseTx(4, 16) // stale close: must not clear tx 17
	if r.Block(4).Tx() != 17 {
		t.Fatal("stale CloseTx cleared a newer transaction")
	}
	r.CloseTx(4, 17)
	if r.Block(4).Tx() != 0 {
		t.Fatal("CloseTx did not clear")
	}
}

// span returns a well-formed span for the tiling tests.
func span(tx uint64, parent uint64, phase obs.Phase, start, end uint64) *obs.Span {
	return &obs.Span{Tx: tx, ID: tx*10 + uint64(phase), Parent: parent, Class: obs.TxWrite,
		Phase: phase, Start: start, End: end}
}

func TestSpanTilingClean(t *testing.T) {
	r := NewRecorder(nil, nil, 4)
	t1 := new(TxSpans)
	r.Span(span(1, 0o1, obs.PhReqTravel, 10, 14), t1)
	r.Span(span(1, 0o1, obs.PhDirWait, 14, 20), t1)
	r.Span(span(1, 0o1, obs.PhReplyTravel, 20, 26), t1)
	root := span(1, 0, obs.PhTotal, 10, 26)
	r.Span(root, t1)
	r.Finish(0, 100)
	if r.Count() != 0 {
		t.Fatalf("clean tiling flagged: %v", r.Violations())
	}
}

func TestSpanViolations(t *testing.T) {
	cases := []struct {
		name string
		feed func(r *Recorder, t1 *TxSpans)
		want string
	}{
		{"end before start", func(r *Recorder, t1 *TxSpans) {
			r.Span(span(1, 0, obs.PhTotal, 10, 5), t1)
		}, "before it starts"},
		{"gap between children", func(r *Recorder, t1 *TxSpans) {
			r.Span(span(1, 01, obs.PhReqTravel, 10, 14), t1)
			r.Span(span(1, 01, obs.PhDirWait, 16, 20), t1) // gap at 14..16
		}, "gap or overlap"},
		{"children don't tile root", func(r *Recorder, t1 *TxSpans) {
			r.Span(span(1, 01, obs.PhReqTravel, 10, 14), t1)
			r.Span(span(1, 0, obs.PhTotal, 10, 26), t1)
		}, "children tile"},
		// A completed tree is forgotten, so duplicate-root and
		// child-after-root are only detectable while the tx still owes its
		// asynchronous ack.gather child (root.N > 0).
		{"two roots", func(r *Recorder, t1 *TxSpans) {
			root := span(1, 0, obs.PhTotal, 10, 26)
			root.N = 2
			r.Span(root, t1)
			r.Span(root, t1)
		}, "two root spans"},
		{"sync child after root", func(r *Recorder, t1 *TxSpans) {
			root := span(1, 0, obs.PhTotal, 10, 26)
			root.N = 2
			r.Span(root, t1)
			r.Span(span(1, 01, obs.PhReqTravel, 10, 26), t1)
		}, "after its root"},
		{"orphaned children", func(r *Recorder, t1 *TxSpans) {
			r.Span(span(1, 01, obs.PhReqTravel, 10, 14), t1)
			r.Finish(0, 100)
		}, "no root"},
		{"lost ack.gather", func(r *Recorder, t1 *TxSpans) {
			root := span(1, 0, obs.PhTotal, 10, 26)
			root.N = 2 // fan-out: owes an async ack.gather child
			r.Span(root, t1)
			r.Finish(0, 100)
		}, "without its ack.gather"},
	}
	for _, tc := range cases {
		r := NewRecorder(nil, nil, 4)
		tc.feed(r, new(TxSpans))
		found := false
		for _, v := range r.Violations() {
			if v.Rule == RuleSpan && strings.Contains(v.Detail, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no span violation containing %q (got %v)", tc.name, tc.want, r.Violations())
		}
	}
}

// TestSpanAckGatherOrder: the asynchronous ack.gather child may land
// before or after the root; both orders complete the tree cleanly.
func TestSpanAckGatherOrder(t *testing.T) {
	for _, ackFirst := range []bool{true, false} {
		r := NewRecorder(nil, nil, 4)
		t1 := new(TxSpans)
		root := span(1, 0, obs.PhTotal, 10, 26)
		root.N = 2
		ack := span(1, 01, obs.PhAckGather, 12, 40)
		if ackFirst {
			r.Span(ack, t1)
			r.Span(root, t1)
		} else {
			r.Span(root, t1)
			r.Span(ack, t1)
		}
		r.Finish(0, 100)
		if r.Count() != 0 {
			t.Fatalf("ackFirst=%v: clean ack.gather flagged: %v", ackFirst, r.Violations())
		}
	}
}

// TestJSONLSinkEncodesStrings: run labels and details holding control
// bytes, DEL or invalid UTF-8 give records that decode, with both strings
// round-tripping (invalid UTF-8 as U+FFFD).
func TestJSONLSinkEncodesStrings(t *testing.T) {
	for _, s := range []string{"bell\arun", "nul\x00", "tab\vv", "del\x7f", "bad\xffutf8"} {
		buf := &lineBuf{}
		if err := NewJSONLSink(buf, s).WriteViolation(Violation{Rule: RuleAck, Detail: s}); err != nil {
			t.Fatal(err)
		}
		var rec struct{ Run, Detail string }
		if err := json.Unmarshal([]byte(buf.lines[0]), &rec); err != nil {
			t.Fatalf("%q: record %q: %v", s, buf.lines[0], err)
		}
		if want := strings.ToValidUTF8(s, "\uFFFD"); rec.Run != want || rec.Detail != want {
			t.Fatalf("%q decoded as run %q, detail %q", s, rec.Run, rec.Detail)
		}
	}
}

// TestBlockRecords: a block's shadow record keeps its in-flight count,
// open transaction, pending recalls and holder set together, for any block
// number a 61-bit trace address can name and at any processor count (130
// processors take three holder words), and a block never named has no
// record.
func TestBlockRecords(t *testing.T) {
	const procs = 130
	r := NewRecorder(nil, nil, procs)
	const maxBlock = (1<<61 - 1) / 8 // the last block of the 61-bit address space at one word a block
	blocks := []int64{0, 1, 2, 63, 64, 1 << 20, 1 << 40, maxBlock - 1, maxBlock}
	for i := int64(0); i < 4000; i++ {
		blocks = append(blocks, 1000+i*97) // enough records to grow the table several times
	}
	for i, b := range blocks {
		p := i % procs
		r.Cached(p, b)
		r.Cached(procs-1, b)
		r.InvalSent(b, 2)
		r.OpenTx(b, uint64(i+1))
		r.RecallPending(b, +1)
	}
	for i, b := range blocks {
		s := r.Block(b)
		p := i % procs
		if s == nil || s.ID() != b || s.Inflight() != 2 || s.Tx() != uint64(i+1) || s.RecallsPending() != 1 {
			t.Fatalf("block %d: record %+v", b, s)
		}
		if !s.Holds(p) || !s.Holds(procs-1) || (p != procs-1 && s.Holds((p+1)%(procs-1))) {
			t.Fatalf("block %d: holders %x, want procs %d and %d", b, s.Holders(), p, procs-1)
		}
		if len(s.Holders()) != 3 {
			t.Fatalf("block %d: %d holder words for %d procs, want 3", b, len(s.Holders()), procs)
		}
		r.Uncached(p, b)
		if s.Holds(p) && p != procs-1 {
			t.Fatalf("block %d: Uncached(%d) left the holder bit", b, p)
		}
		r.RecallPending(b, -2)
		if s.RecallsPending() != 0 {
			t.Fatalf("block %d: recall count went to %d, want it floored at 0", b, s.RecallsPending())
		}
	}
	if s := r.Block(maxBlock - 2); s != nil {
		t.Fatalf("a block never named has record %+v", s)
	}
	r.Uncached(5, maxBlock-2) // uncaching an untracked block is a no-op
	if r.Block(maxBlock-2) != nil {
		t.Fatal("Uncached created a record")
	}
}

// TestSpanStateMismatch: a span handed the tiling state of another
// transaction is a span violation, and leaves that state untouched.
func TestSpanStateMismatch(t *testing.T) {
	r := NewRecorder(nil, nil, 1)
	t1 := new(TxSpans)
	r.Span(span(1, 1, obs.PhReqTravel, 10, 14), t1)
	r.Span(span(2, 2, obs.PhDirWait, 14, 20), t1)
	if r.Count() != 1 || !strings.Contains(r.Violations()[0].Detail, "handed the tiling state of transaction 1") {
		t.Fatalf("mismatched state not flagged: %v", r.Violations())
	}
	r.Span(span(1, 1, obs.PhDirWait, 14, 20), t1)
	r.Span(span(1, 0, obs.PhTotal, 10, 20), t1)
	r.Finish(0, 100)
	if r.Count() != 1 {
		t.Fatalf("transaction 1's tree did not complete cleanly: %v", r.Violations())
	}
}

// TestSpanReleaseKeepsOpenTrees: a record the machine releases with its
// tree still owed spans (here its ack.gather) is reported at Finish, and
// the released state is clear for the next transaction.
func TestSpanReleaseKeepsOpenTrees(t *testing.T) {
	r := NewRecorder(nil, nil, 1)
	t1 := new(TxSpans)
	root := span(7, 0, obs.PhTotal, 10, 26)
	root.N = 2
	r.Span(root, t1)
	r.Release(t1)
	if *t1 != (TxSpans{}) {
		t.Fatalf("released state not cleared: %+v", *t1)
	}
	r.Span(span(8, 8, obs.PhReqTravel, 30, 34), t1)
	r.Span(span(8, 0, obs.PhTotal, 30, 34), t1)
	r.Release(t1)
	r.Finish(0, 100)
	if r.Count() != 1 || !strings.Contains(r.Violations()[0].Detail, "transaction 7 (write) ended without its ack.gather") {
		t.Fatalf("want only transaction 7's lost ack.gather, got %v", r.Violations())
	}
}
