package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// JSONLSink encodes each recorded item as one JSON object per line. Event
// lines carry an "ev" key and span lines a "span" key:
//
//	{"run":"LU/Dir32","t":412,"node":3,"ev":"inval.fanout","block":97,"n":5}
//	{"run":"LU/Dir32","tx":7,"span":9,"parent":7,"class":"write","phase":"fanout","node":3,"block":97,"start":412,"end":440,"n":5}
//
// The run field is set per view via Sub, so one file can interleave both
// streams of a whole experiment sweep. Every view writes under one shared
// lock, so concurrently running machines may share one sink; each batch
// is written contiguously.
type JSONLSink struct {
	shared *jsonlShared
	run    string // the encoded `"run":<label>,` member; "" omits it
}

// jsonlShared is the writer state all Sub views of one sink funnel into.
type jsonlShared struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying file, if owned
	err error     // sticky first error
}

// NewJSONLSink wraps w. If w is an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	sh := &jsonlShared{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		sh.c = c
	}
	return &JSONLSink{shared: sh}
}

// JSONString renders s as a JSON string literal the way encoding/json
// does, so invalid UTF-8 becomes U+FFFD, but leaves <, > and & as they
// are: a printable ASCII string reads as Go's %q renders it.
func JSONString(s string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes
	return strings.TrimSuffix(b.String(), "\n")
}

// Sub returns a view of the sink that tags every record with the given run
// label (none when empty). All views share the parent's writer and lock.
func (s *JSONLSink) Sub(run string) *JSONLSink {
	v := &JSONLSink{shared: s.shared}
	if run != "" {
		v.run = `"run":` + JSONString(run) + ","
	}
	return v
}

// Write implements Sink for events. Kind names are fixed identifiers, so
// they are quoted as they are.
func (s *JSONLSink) Write(batch []Event) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, ev := range batch {
		if sh.err != nil {
			break
		}
		_, sh.err = fmt.Fprintf(sh.w, `{%s"t":%d,"node":%d,"ev":"%s","block":%d,"n":%d}`+"\n",
			s.run, ev.T, ev.Node, ev.Kind, ev.Block, ev.Arg)
	}
	return sh.err
}

// WriteSpans implements Sink for spans. Class and phase names are fixed
// identifiers, so they are quoted as they are.
func (s *JSONLSink) WriteSpans(batch []Span) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sp := range batch {
		if sh.err != nil {
			break
		}
		_, sh.err = fmt.Fprintf(sh.w, `{%s"tx":%d,"span":%d,"parent":%d,"class":"%s","phase":"%s","node":%d,"block":%d,"start":%d,"end":%d,"n":%d}`+"\n",
			s.run, sp.Tx, sp.ID, sp.Parent, sp.Class, sp.Phase, sp.Node, sp.Block, sp.Start, sp.End, sp.N)
	}
	return sh.err
}

// WriteLine appends one pre-rendered line to the sink's output under its
// shared lock, so foreign record streams (e.g. check-violation records)
// can interleave with event and span lines without tearing. The line must
// not contain a newline; one is appended.
func (s *JSONLSink) WriteLine(line string) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err == nil {
		_, sh.err = sh.w.WriteString(line + "\n")
	}
	return sh.err
}

// Flush pushes buffered output through to the underlying writer without
// closing it, so a reader tailing the file (the campaign service's
// /stream endpoint) sees every completed line. Flushing any Sub view
// flushes the shared writer.
func (s *JSONLSink) Flush() error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.w.Flush(); err != nil && sh.err == nil {
		sh.err = err
	}
	return sh.err
}

// Close flushes buffered output and closes the underlying writer if the
// sink owns it. Closing any Sub view closes the shared writer.
func (s *JSONLSink) Close() error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.w.Flush(); err != nil && sh.err == nil {
		sh.err = err
	}
	if sh.c != nil {
		if err := sh.c.Close(); err != nil && sh.err == nil {
			sh.err = err
		}
	}
	return sh.err
}
