package apps

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
		tango.MakeRef(tango.Write, 0x15),
		tango.MakeRef(tango.Read, 0x17),
		tango.MakeRef(tango.Read, 32),
		tango.MakeRef(tango.Write, 0x20),
		tango.MakeRef(tango.Lock, 0x100),
		tango.MakeRef(tango.Unlock, 0x100),
		tango.MakeRef(tango.Barrier, 0x200),
	}
	if len(refs) != len(want) {
		t.Fatalf("got %d refs, want %d", len(refs), len(want))
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, refs[i], want[i])
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
		{"RD 0x1ffffffffffffff7\nRD 0x1ffffffffffffff8", "address \"0x1ffffffffffffff8\" past the 2305843009213693944-byte address space"},
		{"RD\u00a00x10\nRD 0x1\u00e9", "bad address \"0x1\u00e9\""},
		{"RD 0x10\n\u00e9 0x10", "unknown instruction \"\u00e9\""},
		{"RD\u30000x10 5", "exactly one operand"},
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

// traceRef is a reference as parseTraceReference returns it: an op
// beside an address of the whole int64 range.
type traceRef struct {
	op   tango.Op
	addr int64
}

// parseTraceReference is ParseTrace before it parsed in place: a string
// per line and a strings.Fields split, which allocate for every line.
// Only the address bound is a parameter; at maxTraceAddr it must agree
// with ParseTrace on every input, refs and errors alike.
func parseTraceReference(r io.Reader, name string, maxAddr int64) ([]traceRef, error) {
	var refs []traceRef
	held := make(map[int64]bool) // the locks this core holds
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxTraceLine)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return &TraceParseError{File: name, Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op, ok := traceOpReference(fields[0])
		switch {
		case !ok:
			return nil, fail("unknown instruction %q (want RD, WR, LOCK, UNLOCK or BARRIER)", fields[0])
		case op == tango.Write && len(fields) != 3:
			return nil, fail("WR wants exactly two operands: WR <addr> <value>")
		case op != tango.Write && len(fields) != 2:
			return nil, fail("%s wants exactly one operand: %[1]s <addr>", traceOps[op])
		}
		addr, err := strconv.ParseInt(fields[1], 0, 64)
		switch {
		case err != nil:
			return nil, fail("bad address %q", fields[1])
		case addr < 0:
			return nil, fail("negative address %q", fields[1])
		case addr > maxAddr:
			return nil, fail("address %q past the %d-byte address space", fields[1], maxAddr+1)
		}
		switch op {
		case tango.Write:
			if _, err := strconv.ParseInt(fields[2], 0, 64); err != nil {
				return nil, fail("bad value %q", fields[2])
			}
		case tango.Lock:
			held[addr] = true
		case tango.Unlock:
			if !held[addr] {
				return nil, fail("UNLOCK %s of a lock this core does not hold", fields[1])
			}
			delete(held, addr)
		}
		refs = append(refs, traceRef{op, addr})
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		lineNo++
		return nil, fail("line of %d bytes or more", maxTraceLine)
	} else if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	return refs, nil
}

// traceOpReference is traceOp before it took bytes.
func traceOpReference(instr string) (tango.Op, bool) {
	for op, s := range traceOps {
		if strings.EqualFold(s, instr) {
			return tango.Op(op), true
		}
	}
	return 0, false
}

// TestParseTraceBoundMoved: at the old bound, 2^63 - 9, the reference
// parser accepts addresses from 2^61 - 8 up to it, and ParseTrace rejects
// them; FuzzParseTrace holds the two equal on everything else.
func TestParseTraceBoundMoved(t *testing.T) {
	const oldMax = math.MaxInt64 - tango.WordBytes
	for _, in := range []string{"RD 0x1ffffffffffffff8", "WR 0x7ffffffffffffff7 1", "LOCK 4611686018427387904"} {
		if _, err := parseTraceReference(strings.NewReader(in), "t", oldMax); err != nil {
			t.Errorf("reference at the old bound rejects %q: %v", in, err)
		}
		var pe *TraceParseError
		if _, err := ParseTrace(strings.NewReader(in), "t"); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "past the") {
			t.Errorf("ParseTrace(%q) = %v, want a past-the-address-space error", in, err)
		}
	}
	refs, err := ParseTrace(strings.NewReader("WR 0x1ffffffffffffff7 1"), "t")
	if err != nil || len(refs) != 1 || refs[0] != tango.MakeRef(tango.Write, maxTraceAddr) {
		t.Fatalf("ParseTrace at the bound = %v, %v", refs, err)
	}
}

// TestParseTraceAllocs: parsing allocates for the growing ref slice, not
// for each line.
func TestParseTraceAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1024; i++ {
		fmt.Fprintf(&b, "RD 0x%x\nwr %d 7\nLOCK 0x40\nUNLOCK 64\n", 8*i, 16*i)
	}
	in := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseTrace(strings.NewReader(in), "t"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("parsing 4,096 lines made %.0f allocations, want at most 40", allocs)
	}
}

// FuzzParseTrace: the parser never panics, every error it returns is a
// *TraceParseError, it agrees with parseTraceReference (the same refs, or
// the same error message and line), every address it accepts leaves room
// for a word below tango.MaxAddr, it returns one ref per instruction line,
// and writing the refs back out parses to the same refs.
func FuzzParseTrace(f *testing.F) {
	f.Add("# ping-pong\nWR 0x15 100\nRD 0x17\n\nrd 32\nwr 0x20 0x7f\n")
	f.Add("RD 0x7ffffffffffffff7\r\nWR 9223372036854775799 -1")
	f.Add("RD 0x7fffffffffffffff\n")
	f.Add("LD 0x10\nRD\nWR 1 2 3\n")
	f.Add("LOCK 0x40\nWR 0x48 1\nUNLOCK 0x40\nBARRIER 0x80\nlock 64\nunlock 0x40\n")
	f.Add("UNLOCK 0x40\nLOCK 0x40\n")
	f.Add("LOCK 0x40\nLOCK 0x50\nUNLOCK 0x50\nUNLOCK 0x50\nBARRIER\n")
	f.Add("RD 0x1ffffffffffffff7\r\nWR 2305843009213693943 -1\nRD 0x1ffffffffffffff8\n")
	f.Add("RD\u00a00x10\nLOC\u212a 0x40\n\u2003wr\t0x48\v1 \n# \u00e9\nUNLOCK\u30000o100\n")
	f.Fuzz(func(t *testing.T, in string) {
		refs, err := ParseTrace(strings.NewReader(in), "fuzz")
		want, werr := parseTraceReference(strings.NewReader(in), "fuzz", maxTraceAddr)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		if err != nil {
			var pe *TraceParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *TraceParseError", err)
			}
			return
		}
		if len(refs) != len(want) {
			t.Fatalf("%d refs, reference %d", len(refs), len(want))
		}
		for i, r := range refs {
			if (traceRef{r.Op(), r.Addr()}) != want[i] {
				t.Fatalf("ref %d = %v, reference %v", i, r, want[i])
			}
		}
		instrs := 0
		for _, l := range strings.Split(in, "\n") {
			if fields := strings.Fields(l); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
				if _, ok := traceOp([]byte(fields[0])); !ok {
					t.Fatalf("accepted instruction %q", fields[0])
				}
				instrs++
			}
		}
		if len(refs) != instrs {
			t.Fatalf("%d refs from %d instruction lines", len(refs), instrs)
		}
		for _, r := range refs {
			if r.Addr() > tango.MaxAddr-tango.WordBytes {
				t.Fatalf("accepted address %#x", r.Addr())
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
	idle := &tango.Workload{Streams: [][]tango.Ref{{tango.MakeRef(tango.Read, 0x80)}, nil}}
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
