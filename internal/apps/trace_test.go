package apps

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
LOCK 0x100
unlock 256
Barrier 0x200
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
		{Op: tango.Lock, Addr: 0x100},
		{Op: tango.Unlock, Addr: 0x100},
		{Op: tango.Barrier, Addr: 0x200},
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
		{"LOCK", "exactly one operand"},
		{"BARRIER 0x10 2", "exactly one operand"},
		{"UNLOCK -8", "negative address"},
		{"UNLOCK 0x10", `UNLOCK 0x10 of a lock this core does not hold`},
		{"LOCK 0x10\nUNLOCK 0x18", "UNLOCK 0x18 of a lock"},
		{"LOCK 0x10\nUNLOCK 0x10\nUNLOCK 0x10", "UNLOCK 0x10 of a lock"},
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
		if want := strings.Count(c.in, "\n") + 1; pe.Line != want {
			t.Errorf("%q: line = %d, want %d", c.in, pe.Line, want)
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

// FuzzParseTrace: the parser never panics, every error it returns is a
// *TraceParseError, every address it accepts leaves room for a word
// before int64 overflows, it returns one ref per instruction line, and
// writing the refs back out parses to the same refs.
func FuzzParseTrace(f *testing.F) {
	f.Add("# ping-pong\nWR 0x15 100\nRD 0x17\n\nrd 32\nwr 0x20 0x7f\n")
	f.Add("RD 0x7ffffffffffffff7\r\nWR 9223372036854775799 -1")
	f.Add("RD 0x7fffffffffffffff\n")
	f.Add("LD 0x10\nRD\nWR 1 2 3\n")
	f.Add("LOCK 0x40\nWR 0x48 1\nUNLOCK 0x40\nBARRIER 0x80\nlock 64\nunlock 0x40\n")
	f.Add("UNLOCK 0x40\nLOCK 0x40\n")
	f.Add("LOCK 0x40\nLOCK 0x50\nUNLOCK 0x50\nUNLOCK 0x50\nBARRIER\n")
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
				if _, ok := traceOp(fields[0]); !ok {
					t.Fatalf("accepted instruction %q", fields[0])
				}
				instrs++
			}
		}
		if len(refs) != instrs {
			t.Fatalf("%d refs from %d instruction lines", len(refs), instrs)
		}
		for _, r := range refs {
			if r.Addr < 0 || r.Addr > math.MaxInt64-tango.WordBytes {
				t.Fatalf("accepted address %#x", r.Addr)
			}
		}
		var buf bytes.Buffer
		if _, err := writeTrace(&buf, refs); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ParseTrace(&buf, "rewritten")
		if err != nil {
			t.Fatalf("rewritten trace: %v", err)
		}
		if !reflect.DeepEqual(back, refs) {
			t.Fatalf("rewritten trace parses to %v, want %v", back, refs)
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

	// An idle processor is an empty core file, not a missing one.
	idle := &tango.Workload{Streams: [][]tango.Ref{{{Op: tango.Read, Addr: 0x80}}, nil}}
	dir = t.TempDir()
	if _, err := WriteTraceDir(dir, idle); err != nil {
		t.Fatal(err)
	}
	if wl, err = LoadTraceDir(dir, 2); err != nil || !reflect.DeepEqual(wl.Streams, idle.Streams) {
		t.Fatalf("idle core replayed as %v, %v", wl, err)
	}
}

// TestTraceRoundTripApps: every registered application written as a trace
// reads back reference for reference, locks and barriers included, with an
// extent no larger than the generator's allocation.
func TestTraceRoundTripApps(t *testing.T) {
	sizes := []int{8, 32}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, name := range All() {
		for _, procs := range sizes {
			wl := ByName(name, procs)
			dir := filepath.Join(t.TempDir(), name)
			if _, err := WriteTraceDir(dir, wl); err != nil {
				t.Fatal(err)
			}
			back, err := LoadTraceDir(dir, procs)
			if err != nil {
				t.Fatalf("%s at %d procs: %v", name, procs, err)
			}
			if !reflect.DeepEqual(back.Streams, wl.Streams) {
				t.Errorf("%s at %d procs: replayed streams differ from the generated ones", name, procs)
			}
			if back.SharedBytes <= 0 || back.SharedBytes > wl.SharedBytes {
				t.Errorf("%s at %d procs: SharedBytes %d, generated %d", name, procs, back.SharedBytes, wl.SharedBytes)
			}
		}
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
	// A core past procs means a larger trace: replaying a prefix of it
	// would drop that core's references.
	dir = writeTraceDir(t, "RD 0x10\n", "RD 0x20\n", "RD 0x30\n")
	extra := filepath.Join(dir, "core_2.txt")
	if _, err := LoadTraceDir(dir, 2); err == nil || !strings.Contains(err.Error(), extra) {
		t.Fatalf("want an error naming %s, got %v", extra, err)
	}
}

// TestWriteTraceDirKeepsLargerTrace: writing a smaller trace over a larger
// one fails, naming the first core file past the smaller trace, and writes
// nothing, so the larger trace still loads unchanged.
func TestWriteTraceDirKeepsLargerTrace(t *testing.T) {
	dir := t.TempDir()
	wl8 := ByName("FFT", 8)
	if _, err := WriteTraceDir(dir, wl8); err != nil {
		t.Fatal(err)
	}
	extra := filepath.Join(dir, "core_4.txt")
	if n, err := WriteTraceDir(dir, ByName("FFT", 4)); err == nil || n != 0 || !strings.Contains(err.Error(), extra) {
		t.Fatalf("4-core write over an 8-core trace = %d bytes, %v; want an error naming %s", n, err, extra)
	}
	got, err := LoadTraceDir(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Streams, wl8.Streams) {
		t.Fatal("8-core trace changed after the refused 4-core write")
	}
}
