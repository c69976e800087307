package apps

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dircoh/internal/tango"
)

func TestParseTrace(t *testing.T) {
	in := `
# ping-pong over one block
WR 0x15 100
RD 0x17
rd 32
wr 0x20 0x7f
`
	refs, err := ParseTrace(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	want := []tango.Ref{
		{Op: tango.Write, Addr: 0x15},
		{Op: tango.Read, Addr: 0x17},
		{Op: tango.Read, Addr: 32},
		{Op: tango.Write, Addr: 0x20},
	}
	if len(refs) != len(want) {
		t.Fatalf("got %d refs, want %d", len(refs), len(want))
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, refs[i], want[i])
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		in, wantMsg string
	}{
		{"LD 0x10", `unknown instruction "LD"`},
		{"RD", "exactly one operand"},
		{"RD 0x10 5", "exactly one operand"},
		{"WR 0x10", "exactly two operands"},
		{"WR 0x10 5 6", "exactly two operands"},
		{"RD zebra", `bad address "zebra"`},
		{"RD -8", "negative address"},
		{"RD 0x7fffffffffffffff", "past the"},
		{"WR 0x7ffffffffffffff9 1", "past the"},
		{"WR 0x10 many", `bad value "many"`},
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.in), "t")
		var pe *TraceParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: want *TraceParseError, got %v", c.in, err)
		}
		if !strings.Contains(pe.Error(), c.wantMsg) {
			t.Errorf("%q: error %q lacks %q", c.in, pe.Error(), c.wantMsg)
		}
		if pe.Line != 1 {
			t.Errorf("%q: line = %d, want 1", c.in, pe.Line)
		}
	}
}

// TestParseTraceLongLine: a line past the length limit — even a comment —
// is a *TraceParseError naming the file and the line.
func TestParseTraceLongLine(t *testing.T) {
	in := "RD 0x10\n#" + strings.Repeat("x", 2<<20) + "\nRD 0x20\n"
	_, err := ParseTrace(strings.NewReader(in), "core_0.txt")
	var pe *TraceParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *TraceParseError", err)
	}
	if pe.File != "core_0.txt" || pe.Line != 2 {
		t.Errorf("error at %s:%d, want core_0.txt:2", pe.File, pe.Line)
	}
}

// FuzzParseTrace: the RD/WR parser never panics, every error it returns is
// a *TraceParseError, every address it accepts leaves room for a word
// before int64 overflows, and it returns one ref per RD or WR line.
func FuzzParseTrace(f *testing.F) {
	f.Add("# ping-pong\nWR 0x15 100\nRD 0x17\n\nrd 32\nwr 0x20 0x7f\n")
	f.Add("RD 0x7ffffffffffffff7\r\nWR 9223372036854775799 -1")
	f.Add("RD 0x7fffffffffffffff\n")
	f.Add("LD 0x10\nRD\nWR 1 2 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		refs, err := ParseTrace(strings.NewReader(in), "fuzz")
		if err != nil {
			var pe *TraceParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *TraceParseError", err)
			}
			return
		}
		instrs := 0
		for _, l := range strings.Split(in, "\n") {
			if fields := strings.Fields(l); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
				if op := strings.ToUpper(fields[0]); op != "RD" && op != "WR" {
					t.Fatalf("accepted instruction %q", fields[0])
				}
				instrs++
			}
		}
		if len(refs) != instrs {
			t.Fatalf("%d refs from %d RD/WR lines", len(refs), instrs)
		}
		for _, r := range refs {
			if r.Addr < 0 || r.Addr > math.MaxInt64-tango.WordBytes {
				t.Fatalf("accepted address %#x", r.Addr)
			}
		}
	})
}

func writeTraceDir(t *testing.T, cores ...string) string {
	t.Helper()
	dir := t.TempDir()
	for i, c := range cores {
		path := filepath.Join(dir, "core_"+string(rune('0'+i))+".txt")
		if err := os.WriteFile(path, []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadTraceDir(t *testing.T) {
	dir := writeTraceDir(t,
		"WR 0x10 1\nRD 0x40\n",
		"RD 0x10\nWR 0x40 2\n")
	wl, err := LoadTraceDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Procs() != 2 {
		t.Fatalf("procs = %d, want 2", wl.Procs())
	}
	c := wl.Characterize()
	if c.SharedRefs != 4 || c.SharedReads != 2 || c.SharedWrites != 2 {
		t.Fatalf("characterize = %+v", c)
	}
	if wl.SharedBytes != 0x40+tango.WordBytes {
		t.Fatalf("SharedBytes = %d, want %d", wl.SharedBytes, 0x40+tango.WordBytes)
	}
}

func TestLoadTraceDirMissingCore(t *testing.T) {
	dir := writeTraceDir(t, "RD 0x10\n")
	if _, err := LoadTraceDir(dir, 2); err == nil || !strings.Contains(err.Error(), "core 1 of 2") {
		t.Fatalf("want missing-core error, got %v", err)
	}
	if _, err := LoadTraceDir(dir, 0); err == nil {
		t.Fatal("want procs error")
	}
}

// TestTraceAppRegistered: the "trace" app resolves through the registry
// and replays the configured directory.
func TestTraceAppRegistered(t *testing.T) {
	dir := writeTraceDir(t, "RD 0x10\n", "WR 0x10 7\n")
	prev := SetTraceDir(dir)
	defer SetTraceDir(prev)
	f, err := Lookup("trace")
	if err != nil {
		t.Fatal(err)
	}
	wl := f(2)
	if wl.Procs() != 2 || len(wl.Streams[0]) != 1 {
		t.Fatalf("unexpected workload: procs=%d", wl.Procs())
	}
	// Extension apps are reachable by name but stay out of the paper set.
	for _, name := range Names() {
		if name == "trace" {
			t.Fatal("trace leaked into the paper evaluation set")
		}
	}
}
