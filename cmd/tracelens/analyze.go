package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dircoh/internal/obs"
	"dircoh/internal/stats"
)

// spanLine is the JSONL encoding of one span (obs.JSONLSink.WriteSpans).
// Ev catches coherence-event lines sharing the file, which are skipped.
type spanLine struct {
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
	Ev     string `json:"ev"`
}

// tx is one reconstructed transaction: its root span plus the per-phase
// durations of its children.
type tx struct {
	root     obs.Span
	children []obs.Span
	phase    [obs.NumPhases]uint64 // summed child duration by phase
}

// analysis is everything tracelens extracts from one run's span stream.
type analysis struct {
	run     string
	txs     []*tx
	byClass [obs.NumTxClasses][]*tx
}

// parse reads span JSONL from r, grouping transactions by run label.
// Coherence-event lines ("ev" key) interleaved in the same file are
// skipped. Any malformed line, unknown class/phase name, duplicate root
// transaction id, orphan child
// span, or synchronous-phase tiling violation is an error: the trace is
// the analyzer's ground truth and a broken one must not produce silently
// wrong tables.
func parse(r io.Reader) ([]*analysis, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type pending struct {
		roots    map[uint64]*tx
		orphans  int
		firstTx  uint64
		children map[uint64][]obs.Span // children seen before their root
	}
	runs := map[string]*pending{}
	var order []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var sl spanLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if sl.Ev != "" || sl.Span == 0 {
			continue // coherence event (or foreign line); not a span
		}
		class, err := obs.ParseTxClass(sl.Class)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		phase, err := obs.ParsePhase(sl.Phase)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if sl.End < sl.Start {
			return nil, fmt.Errorf("line %d: span %d ends (%d) before it starts (%d)", lineNo, sl.Span, sl.End, sl.Start)
		}
		p := runs[sl.Run]
		if p == nil {
			p = &pending{roots: map[uint64]*tx{}, children: map[uint64][]obs.Span{}}
			runs[sl.Run] = p
			order = append(order, sl.Run)
		}
		s := obs.Span{Tx: sl.Tx, ID: sl.Span, Parent: sl.Parent, Class: class, Phase: phase,
			Node: sl.Node, Block: sl.Block, Start: sl.Start, End: sl.End, N: sl.N}
		if s.Parent == 0 {
			if s.ID != s.Tx || s.Phase != obs.PhTotal {
				return nil, fmt.Errorf("line %d: malformed root span %d (tx %d, phase %s)", lineNo, s.ID, s.Tx, s.Phase)
			}
			if prev := p.roots[s.ID]; prev != nil {
				// Root TxIDs must be unique within a run: the machine
				// derives them as cluster<<40|seq, so a collision means a
				// broken merge (or two runs written under one label) and
				// every table downstream would silently blend the two
				// transactions.
				return nil, fmt.Errorf("line %d: duplicate transaction id %d in run %q (first root starts at cycle %d)", lineNo, s.ID, sl.Run, prev.root.Start)
			}
			t := &tx{root: s}
			p.roots[s.ID] = t
			// Adopt children that arrived first (async acks can outlive
			// the root in the emission stream only in reverse, but be
			// permissive about ordering).
			for _, c := range p.children[s.ID] {
				t.children = append(t.children, c)
				t.phase[c.Phase] += c.Duration()
			}
			delete(p.children, s.ID)
			continue
		}
		if t := p.roots[s.Parent]; t != nil {
			t.children = append(t.children, s)
			t.phase[s.Phase] += s.Duration()
		} else {
			p.children[s.Parent] = append(p.children[s.Parent], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []*analysis
	for _, run := range order {
		p := runs[run]
		if n := len(p.children); n > 0 {
			for parent := range p.children {
				return nil, fmt.Errorf("run %q: %d orphan span group(s); first parent %d has no root span", run, n, parent)
			}
		}
		a := &analysis{run: run}
		for _, t := range p.roots {
			if err := checkTiling(t); err != nil {
				return nil, fmt.Errorf("run %q: %v", run, err)
			}
			a.txs = append(a.txs, t)
			a.byClass[t.root.Class] = append(a.byClass[t.root.Class], t)
		}
		sort.Slice(a.txs, func(i, j int) bool { return a.txs[i].root.Tx < a.txs[j].root.Tx })
		out = append(out, a)
	}
	return out, nil
}

// checkTiling verifies the span contract: a transaction's synchronous
// phase spans partition [root.Start, root.End] exactly, in time order;
// asynchronous phases (Phase.Async) may extend past the root.
func checkTiling(t *tx) error {
	var sync []obs.Span
	for _, c := range t.children {
		if c.Tx != t.root.Tx || c.Class != t.root.Class {
			return fmt.Errorf("tx %d: child span %d disagrees with root (tx %d class %s)", t.root.Tx, c.ID, c.Tx, c.Class)
		}
		if !c.Phase.Async(t.root.Class) {
			sync = append(sync, c)
		}
	}
	sort.Slice(sync, func(i, j int) bool { return sync[i].Start < sync[j].Start })
	at := t.root.Start
	for _, c := range sync {
		if c.Start != at {
			return fmt.Errorf("tx %d: phase %s starts at %d, want %d", t.root.Tx, c.Phase, c.Start, at)
		}
		at = c.End
	}
	if at != t.root.End {
		return fmt.Errorf("tx %d: synchronous phases cover [..%d], root ends at %d", t.root.Tx, at, t.root.End)
	}
	return nil
}

// quantile returns the q-quantile of sorted durations (rank ceil(q*n),
// matching obs.Histogram.Quantile but exact).
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// classTable builds the per-class latency table: count, mean, p50/p95/p99
// and max cycles from issue to completion.
func (a *analysis) classTable() *stats.Table {
	tb := stats.NewTable("class", "count", "mean", "p50", "p95", "p99", "max")
	for c := 0; c < obs.NumTxClasses; c++ {
		txs := a.byClass[c]
		if len(txs) == 0 {
			continue
		}
		durs := make([]uint64, len(txs))
		var sum uint64
		for i, t := range txs {
			durs[i] = t.root.Duration()
			sum += durs[i]
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		tb.AddRow(obs.TxClass(c).String(),
			fmt.Sprintf("%d", len(durs)),
			fmt.Sprintf("%.1f", float64(sum)/float64(len(durs))),
			fmt.Sprintf("%d", quantile(durs, 0.50)),
			fmt.Sprintf("%d", quantile(durs, 0.95)),
			fmt.Sprintf("%d", quantile(durs, 0.99)),
			fmt.Sprintf("%d", durs[len(durs)-1]))
	}
	return tb
}

// phaseTable breaks each class's mean latency down by phase: the mean
// cycles spent per transaction in each synchronous phase (these columns
// sum to the mean total) plus the asynchronous ack.gather overlap.
func (a *analysis) phaseTable() *stats.Table {
	header := []string{"class", "total"}
	for ph := 1; ph < obs.NumPhases; ph++ {
		header = append(header, obs.Phase(ph).String())
	}
	tb := stats.NewTable(header...)
	for c := 0; c < obs.NumTxClasses; c++ {
		txs := a.byClass[c]
		if len(txs) == 0 {
			continue
		}
		var total uint64
		var phase [obs.NumPhases]uint64
		for _, t := range txs {
			total += t.root.Duration()
			for ph := range phase {
				phase[ph] += t.phase[ph]
			}
		}
		n := float64(len(txs))
		row := []string{obs.TxClass(c).String(), fmt.Sprintf("%.1f", float64(total)/n)}
		for ph := 1; ph < obs.NumPhases; ph++ {
			cell := fmt.Sprintf("%.1f", float64(phase[ph])/n)
			if obs.Phase(ph).Async(obs.TxClass(c)) {
				cell += "*"
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}
	return tb
}

// slowestTable lists the top-n slowest transactions with their critical
// path: every phase duration, so the dominant segment is visible per row.
func (a *analysis) slowestTable(n int) *stats.Table {
	txs := append([]*tx(nil), a.txs...)
	sort.Slice(txs, func(i, j int) bool {
		di, dj := txs[i].root.Duration(), txs[j].root.Duration()
		if di != dj {
			return di > dj
		}
		return txs[i].root.Tx < txs[j].root.Tx
	})
	if n > len(txs) {
		n = len(txs)
	}
	tb := stats.NewTable("tx", "class", "node", "block", "total", "critical path")
	for _, t := range txs[:n] {
		var path []string
		sync := append([]obs.Span(nil), t.children...)
		sort.Slice(sync, func(i, j int) bool { return sync[i].Start < sync[j].Start })
		for _, c := range sync {
			seg := fmt.Sprintf("%s %d", c.Phase, c.Duration())
			if c.Phase.Async(t.root.Class) {
				seg += "*"
			}
			path = append(path, seg)
		}
		tb.AddRow(fmt.Sprintf("%d", t.root.Tx), t.root.Class.String(),
			fmt.Sprintf("%d", t.root.Node), fmt.Sprintf("%d", t.root.Block),
			fmt.Sprintf("%d", t.root.Duration()), strings.Join(path, " | "))
	}
	return tb
}

// fanoutTable buckets transactions by invalidation fan-out and shows how
// latency moves with it (the paper's traffic-vs-latency tradeoff, per
// transaction).
func (a *analysis) fanoutTable() *stats.Table {
	type bucket struct {
		durs []uint64
		sum  uint64
	}
	buckets := map[int64]*bucket{}
	for _, t := range a.txs {
		b := buckets[t.root.N]
		if b == nil {
			b = &bucket{}
			buckets[t.root.N] = b
		}
		d := t.root.Duration()
		b.durs = append(b.durs, d)
		b.sum += d
	}
	fans := make([]int64, 0, len(buckets))
	for f := range buckets {
		fans = append(fans, f)
	}
	sort.Slice(fans, func(i, j int) bool { return fans[i] < fans[j] })
	tb := stats.NewTable("fanout", "count", "mean", "p95")
	for _, f := range fans {
		b := buckets[f]
		sort.Slice(b.durs, func(i, j int) bool { return b.durs[i] < b.durs[j] })
		tb.AddRow(fmt.Sprintf("%d", f),
			fmt.Sprintf("%d", len(b.durs)),
			fmt.Sprintf("%.1f", float64(b.sum)/float64(len(b.durs))),
			fmt.Sprintf("%d", quantile(b.durs, 0.95)))
	}
	return tb
}

// report writes the full analysis for one run.
func (a *analysis) report(w io.Writer, top int) {
	label := a.run
	if label == "" {
		label = "(unlabeled)"
	}
	fmt.Fprintf(w, "== run %s: %d transactions ==\n\n", label, len(a.txs))
	fmt.Fprintf(w, "transaction latency by class (cycles):\n%s\n", a.classTable())
	fmt.Fprintf(w, "mean phase breakdown (cycles per transaction; * = overlaps the reply):\n%s\n", a.phaseTable())
	fmt.Fprintf(w, "slowest %d transactions:\n%s\n", top, a.slowestTable(top))
	fmt.Fprintf(w, "latency vs invalidation fan-out:\n%s\n", a.fanoutTable())
}
