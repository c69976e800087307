// Package stats provides the measurement containers the simulator and the
// benchmark harness share: invalidation-distribution histograms (Figures
// 3–6 of the paper), message-class counters (§5), and plain-text table
// rendering for paper-style output.
package stats

import (
	"fmt"
	"strings"
)

// MsgClass is one of the four message classes of §5 of the paper.
type MsgClass int

const (
	// Request messages are sent by caches to request data or ownership;
	// the paper folds writebacks into this class.
	Request MsgClass = iota
	// Reply messages are sent by directories to grant ownership and/or
	// return data.
	Reply
	// Invalidation messages are sent by directories to invalidate a
	// block.
	Invalidation
	// Ack messages are sent by caches in response to invalidations.
	Ack
	// NumClasses is the number of message classes.
	NumClasses
)

func (c MsgClass) String() string {
	switch c {
	case Request:
		return "request"
	case Reply:
		return "reply"
	case Invalidation:
		return "invalidation"
	case Ack:
		return "acknowledgement"
	default:
		return fmt.Sprintf("MsgClass(%d)", int(c))
	}
}

// MsgCounts tallies messages by class.
type MsgCounts [NumClasses]uint64

// Add records n messages of class c.
func (m *MsgCounts) Add(c MsgClass, n uint64) { m[c] += n }

// Total returns the total message count.
func (m *MsgCounts) Total() uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// InvalAck returns the combined invalidation + acknowledgement count, the
// grouping the paper's figures use.
func (m *MsgCounts) InvalAck() uint64 { return m[Invalidation] + m[Ack] }

// Histogram is a distribution over small non-negative integers — the
// number of invalidations per invalidation event.
type Histogram struct {
	counts []uint64
	events uint64
	total  uint64
}

// Add records one event with value k.
func (h *Histogram) Add(k int) {
	if k < 0 {
		panic("stats: negative histogram value")
	}
	for len(h.counts) <= k {
		h.counts = append(h.counts, 0)
	}
	h.counts[k]++
	h.events++
	h.total += uint64(k)
}

// Events returns the number of recorded events.
func (h *Histogram) Events() uint64 { return h.events }

// Total returns the sum of all recorded values (total invalidations).
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average value per event (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.events == 0 {
		return 0
	}
	return float64(h.total) / float64(h.events)
}

// Count returns the number of events with value k.
func (h *Histogram) Count(k int) uint64 {
	if k < 0 || k >= len(h.counts) {
		return 0
	}
	return h.counts[k]
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int {
	for k := len(h.counts) - 1; k >= 0; k-- {
		if h.counts[k] != 0 {
			return k
		}
	}
	return 0
}

// Percent returns the percentage of events with value k.
func (h *Histogram) Percent(k int) float64 {
	if h.events == 0 {
		return 0
	}
	return 100 * float64(h.Count(k)) / float64(h.events)
}

// Render draws the histogram as a text bar chart in the style of the
// paper's Figures 3–6.
func (h *Histogram) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  invalidation events: %d, avg invalidations/event: %.2f\n", h.events, h.Mean())
	maxPct := 0.0
	for k := 0; k <= h.Max(); k++ {
		if p := h.Percent(k); p > maxPct {
			maxPct = p
		}
	}
	for k := 0; k <= h.Max(); k++ {
		p := h.Percent(k)
		bar := 0
		if maxPct > 0 {
			bar = int(p / maxPct * 50)
		}
		fmt.Fprintf(&b, "  %3d | %-50s %6.2f%%\n", k, strings.Repeat("#", bar), p)
	}
	return b.String()
}

// LatHist is a coarse latency histogram with power-of-two buckets,
// suitable for read/write completion times.
type LatHist struct {
	buckets [32]uint64
	count   uint64
	total   uint64
	max     uint64
}

// Add records one latency sample.
func (h *LatHist) Add(lat uint64) {
	b := 0
	for v := lat; v > 1 && b < len(h.buckets)-1; v >>= 1 {
		b++
	}
	h.buckets[b]++
	h.count++
	h.total += lat
	if lat > h.max {
		h.max = lat
	}
}

// Count returns the number of samples.
func (h *LatHist) Count() uint64 { return h.count }

// Mean returns the average latency.
func (h *LatHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.total) / float64(h.count)
}

// Max returns the largest sample.
func (h *LatHist) Max() uint64 { return h.max }

// Bucket returns the number of samples with latency in [2^i, 2^(i+1)).
func (h *LatHist) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Render draws the latency histogram as text.
func (h *LatHist) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d samples, mean %.1f, max %d\n", title, h.count, h.Mean(), h.max)
	for i := 0; i < len(h.buckets); i++ {
		if h.buckets[i] == 0 {
			continue
		}
		pct := 100 * float64(h.buckets[i]) / float64(h.count)
		fmt.Fprintf(&b, "  <%7d | %-50s %6.2f%%\n", 1<<uint(i+1), strings.Repeat("#", int(pct/2)), pct)
	}
	return b.String()
}

// Table renders rows of columns with right-aligned numeric-ish formatting,
// used for paper-style tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hdr := range t.header {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
