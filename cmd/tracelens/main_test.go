package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
)

// luTrace runs a small LU decomposition with both event tracing and span
// recording into one shared JSONL sink, returning the interleaved bytes —
// exactly what `dashsim -trace-out f -span-out f` produces.
func luTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg := machine.Config{
		Procs:           4,
		ProcsPerCluster: 1,
		Block:           16,
		Cache:           cache.Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
		Scheme:          machine.CoarseVec2,
		Timing:          machine.DefaultTiming(),
		Trace:           obs.NewTracer(sink.Sub("LU/test"), 0),
		Spans:           obs.NewSpanRecorder(sink.Sub("LU/test"), 0),
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(apps.LU(apps.LUConfig{Procs: 4, N: 16})); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushTrace(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushSpans(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeMachineRun feeds a real machine's interleaved event+span
// trace through the analyzer: parsing must succeed (which verifies every
// transaction's tree is complete and correctly tiled), and the tables
// must cover the classes the run produced.
func TestAnalyzeMachineRun(t *testing.T) {
	data := luTrace(t)
	analyses, err := parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(analyses) != 1 {
		t.Fatalf("got %d runs, want 1", len(analyses))
	}
	a := analyses[0]
	if a.run != "LU/test" {
		t.Fatalf("run label %q", a.run)
	}
	if len(a.txs) == 0 {
		t.Fatal("no transactions reconstructed")
	}
	if len(a.byClass[obs.TxRead]) == 0 {
		t.Fatal("no read transactions")
	}
	// Phase durations of synchronous phases must sum to the root's total
	// for every transaction (parse checks tiling; this checks the sums).
	for _, tx := range a.txs {
		var sum uint64
		for ph := 1; ph < obs.NumPhases; ph++ {
			if !obs.Phase(ph).Async(tx.root.Class) {
				sum += tx.phase[ph]
			}
		}
		if sum != tx.root.Duration() {
			t.Fatalf("tx %d: phases sum to %d, total %d", tx.root.Tx, sum, tx.root.Duration())
		}
	}
	var out bytes.Buffer
	a.report(&out, 5)
	for _, want := range []string{"run LU/test", "read", "req.travel", "slowest 5", "fan-out"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestParseSkipsEventLines(t *testing.T) {
	in := `{"run":"r","t":5,"node":1,"ev":"req.issue","block":2,"n":0}
{"run":"r","tx":1,"span":1,"parent":0,"class":"read","phase":"total","node":0,"block":2,"start":10,"end":30,"n":0}
{"run":"r","tx":1,"span":2,"parent":1,"class":"read","phase":"req.travel","node":0,"block":2,"start":10,"end":30,"n":0}
`
	analyses, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(analyses) != 1 || len(analyses[0].txs) != 1 {
		t.Fatalf("got %+v", analyses)
	}
}

func TestParseErrors(t *testing.T) {
	root := `{"tx":1,"span":1,"parent":0,"class":"read","phase":"total","node":0,"block":2,"start":10,"end":30,"n":0}`
	cases := []struct {
		name string
		in   string
	}{
		{"malformed json", `{"tx":1,"span":1`},
		{"unknown class", strings.Replace(root, `"read"`, `"bogus"`, 1)},
		{"unknown phase", strings.Replace(root, `"total"`, `"warp"`, 1)},
		{"orphan child", `{"tx":9,"span":10,"parent":9,"class":"read","phase":"req.travel","node":0,"block":2,"start":10,"end":30,"n":0}`},
		{"bad tiling", root + "\n" + `{"tx":1,"span":2,"parent":1,"class":"read","phase":"req.travel","node":0,"block":2,"start":10,"end":20,"n":0}`},
		{"end before start", strings.Replace(root, `"start":10`, `"start":99`, 1)},
		{"duplicate tx id", root + "\n" + root},
	}
	for _, tc := range cases {
		if _, err := parse(strings.NewReader(tc.in + "\n")); err == nil {
			t.Errorf("%s: parse accepted bad input", tc.name)
		}
	}
	// A colliding root TxID (two transactions claiming id 1) names the id
	// and the run in the error, so a span-ID collision is diagnosable.
	_, errDup := parse(strings.NewReader(root + "\n" + root + "\n"))
	if errDup == nil || !strings.Contains(errDup.Error(), "duplicate transaction id 1") {
		t.Fatalf("duplicate tx id error = %v", errDup)
	}

	// Unknown names surface the obs layer's typed errors.
	_, err := parse(strings.NewReader(strings.Replace(root, `"read"`, `"bogus"`, 1) + "\n"))
	var uc *obs.UnknownTxClassError
	if !errors.As(err, &uc) || uc.Name != "bogus" {
		t.Fatalf("want UnknownTxClassError, got %v", err)
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	sorted := []uint64{10, 20, 30, 40}
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0.25, 10}, {0.5, 20}, {0.75, 30}, {0.99, 40}, {1, 40}} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Fatalf("q=%v: got %d, want %d", tc.q, got, tc.want)
		}
	}
}
