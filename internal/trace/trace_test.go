package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dircoh/internal/apps"
	"dircoh/internal/tango"
)

func roundtrip(t *testing.T, wl *tango.Workload) *tango.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertEqual(t *testing.T, a, b *tango.Workload) {
	t.Helper()
	if a.Name != b.Name || a.SharedBytes != b.SharedBytes || len(a.Streams) != len(b.Streams) {
		t.Fatalf("header mismatch: %q/%d/%d vs %q/%d/%d",
			a.Name, a.SharedBytes, len(a.Streams), b.Name, b.SharedBytes, len(b.Streams))
	}
	for p := range a.Streams {
		if len(a.Streams[p]) != len(b.Streams[p]) {
			t.Fatalf("proc %d: %d vs %d refs", p, len(a.Streams[p]), len(b.Streams[p]))
		}
		for i := range a.Streams[p] {
			if a.Streams[p][i] != b.Streams[p][i] {
				t.Fatalf("proc %d ref %d: %v vs %v", p, i, a.Streams[p][i], b.Streams[p][i])
			}
		}
	}
}

func TestRoundtripApps(t *testing.T) {
	for _, name := range apps.Names() {
		wl := apps.ByName(name, 4)
		assertEqual(t, wl, roundtrip(t, wl))
	}
}

func TestRoundtripEmptyStreams(t *testing.T) {
	wl := &tango.Workload{Name: "empty", Streams: [][]tango.Ref{nil, {}, nil}}
	got := roundtrip(t, wl)
	if len(got.Streams) != 3 {
		t.Fatalf("streams = %d", len(got.Streams))
	}
}

func TestCompression(t *testing.T) {
	// Sequential addresses should cost ~2-3 bytes per reference.
	var b tango.Builder
	for i := int64(0); i < 10000; i++ {
		b.Read(i * 8)
	}
	wl := &tango.Workload{Name: "seq", Streams: [][]tango.Ref{b.Refs()}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatal(err)
	}
	if per := float64(buf.Len()) / 10000; per > 3 {
		t.Fatalf("%.1f bytes/ref, want <= 3 for sequential trace", per)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01\x00"),
		"truncated": {'D', 'C', 'T', 'R', 1},
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

// TestNegativeSharedBytes: Write refuses a negative SharedBytes, and Read
// refuses a shared-bytes field past MaxInt64, which would read back
// negative.
func TestNegativeSharedBytes(t *testing.T) {
	wl := &tango.Workload{Name: "x", SharedBytes: -5, Streams: [][]tango.Ref{{{Op: tango.Read, Addr: 8}}}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); !errors.Is(err, ErrFormat) {
		t.Fatalf("Write: err = %v, want ErrFormat", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Write wrote %d bytes before refusing", buf.Len())
	}
	// Header through the name ("x"), then shared = 2^63 as a uvarint.
	data := []byte{'D', 'C', 'T', 'R', 1, 0, 1, 'x'}
	data = binary.AppendUvarint(data, 1<<63)
	data = append(data, 0) // no processors
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("Read: err = %v, want ErrFormat", err)
	}
	data = binary.AppendUvarint(data[:8], math.MaxInt64)
	data = append(data, 0)
	got, err := Read(bytes.NewReader(data))
	if err != nil || got.SharedBytes != math.MaxInt64 {
		t.Fatalf("Read at MaxInt64 = %+v, %v", got, err)
	}
}

func TestReadBadVersion(t *testing.T) {
	wl := &tango.Workload{Name: "x", Streams: [][]tango.Ref{{{Op: tango.Read, Addr: 0}}}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version low byte
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestReadTrailingGarbage(t *testing.T) {
	wl := &tango.Workload{Name: "x", Streams: [][]tango.Ref{{{Op: tango.Read, Addr: 8}}}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF)
	if _, err := Read(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestReadBadOp(t *testing.T) {
	wl := &tango.Workload{Name: "x", Streams: [][]tango.Ref{{{Op: tango.Read, Addr: 8}}}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The op byte is the first byte after the stream count; find it by
	// corrupting the last two bytes (op, delta) region.
	data[len(data)-2] = 200
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

// Property: arbitrary workloads roundtrip bit-exactly.
func TestQuickRoundtrip(t *testing.T) {
	f := func(rawStreams [][]uint32, name string) bool {
		wl := &tango.Workload{Name: name, SharedBytes: 12345}
		for _, raw := range rawStreams {
			var refs []tango.Ref
			for _, v := range raw {
				refs = append(refs, tango.Ref{
					Op:   tango.Op(v % 5),
					Addr: int64(v >> 3),
				})
			}
			wl.Streams = append(wl.Streams, refs)
		}
		var buf bytes.Buffer
		if err := Write(&buf, wl); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Name != wl.Name || len(got.Streams) != len(wl.Streams) {
			return false
		}
		for p := range wl.Streams {
			if len(got.Streams[p]) != len(wl.Streams[p]) {
				return false
			}
			for i := range wl.Streams[p] {
				if got.Streams[p][i] != wl.Streams[p][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails after n bytes, covering Write's error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = errors.New("short write")

func TestWriteErrors(t *testing.T) {
	var big tango.Builder
	for i := int64(0); i < 3000; i++ {
		big.Write(i * 1024)
	}
	wl := &tango.Workload{Name: "x", Streams: [][]tango.Ref{big.Refs()}}
	// Sweep failure points; every prefix must surface the error.
	for _, n := range []int{0, 3, 4, 6, 8, 12, 100, 5000} {
		if err := Write(&errWriter{n: n}, wl); err == nil {
			t.Errorf("n=%d: expected error", n)
		}
	}
}
