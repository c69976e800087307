package apps

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf8"

	"dircoh/internal/tango"
)

// This file holds the one reference-trace format, the paper's "Tango can
// be used to generate multiprocessor reference traces" mode: WriteTraceDir
// records a workload (cmd/tracegen), and the application name
// "trace:<dir>" replays it through every command, suite and campaign
// (Resolve).
//
// The on-disk layout is the one both SNIPPETS exemplar simulators
// consume: a directory holding one file per simulated processor,
// core_0.txt … core_<procs-1>.txt, each that processor's references in
// order:
//
//	RD <addr>          # shared-data load
//	WR <addr> <value>  # shared-data store (the value is validated and
//	                   # discarded — the simulator is reference-driven)
//	LOCK <addr>        # acquire the lock at addr
//	UNLOCK <addr>      # release a lock this processor holds
//	BARRIER <addr>     # wait for every processor at the barrier at addr
//
// Instructions are case-insensitive. Addresses and values accept decimal
// or 0x-prefixed hex; an address must lie in [0, maxTraceAddr]. Blank
// lines and lines starting with '#' are skipped. Every line, comments
// included, must be shorter than maxTraceLine (1 MiB).

// TraceParseError reports a malformed trace line with its position.
type TraceParseError struct {
	File string
	Line int
	Msg  string
}

func (e *TraceParseError) Error() string {
	return fmt.Sprintf("trace %s:%d: %s", e.File, e.Line, e.Msg)
}

// maxTraceLine bounds one trace line, so a corrupt file cannot make the
// parser buffer it whole.
const maxTraceLine = 1 << 20

// maxTraceAddr is the highest trace address: the workload's extent is the
// highest address plus a word, which must still be a reference address.
const maxTraceAddr = tango.MaxAddr - tango.WordBytes

// traceOps names every tango.Op as a trace instruction.
var traceOps = [...]string{
	tango.Read:    "RD",
	tango.Write:   "WR",
	tango.Lock:    "LOCK",
	tango.Unlock:  "UNLOCK",
	tango.Barrier: "BARRIER",
}

// traceOp returns the op a trace instruction names, in any case.
func traceOp(instr []byte) (tango.Op, bool) {
	for op, s := range traceOps {
		if bytes.EqualFold(instr, []byte(s)) {
			return tango.Op(op), true
		}
	}
	return 0, false
}

// asciiSpace marks the bytes strings.Fields splits an ASCII line at.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// traceFields splits line at white space as strings.Fields does, keeps
// its first len(f) fields in f and returns the number of fields. An ASCII
// line splits in place, without allocating; a line holding a byte ≥ 0x80
// goes through strings.Fields, which also splits at Unicode white space.
func traceFields(line []byte, f *[3][]byte) int {
	n, start := 0, -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			fs := strings.Fields(string(line))
			for j := 0; j < len(fs) && j < len(f); j++ {
				f[j] = []byte(fs[j])
			}
			return len(fs)
		case asciiSpace[c]:
			if start >= 0 {
				if n < len(f) {
					f[n] = line[start:i]
				}
				n, start = n+1, -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// ParseTrace reads one core's instruction stream. The name is used in
// error messages only.
func ParseTrace(r io.Reader, name string) ([]tango.Ref, error) {
	var refs []tango.Ref
	held := make(map[int64]bool) // the locks this core holds
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxTraceLine)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return &TraceParseError{File: name, Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}
	var fields [3][]byte // the line's first three fields
	for sc.Scan() {
		lineNo++
		n := traceFields(sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		op, ok := traceOp(fields[0])
		switch {
		case !ok:
			return nil, fail("unknown instruction %q (want RD, WR, LOCK, UNLOCK or BARRIER)", fields[0])
		case op == tango.Write && n != 3:
			return nil, fail("WR wants exactly two operands: WR <addr> <value>")
		case op != tango.Write && n != 2:
			return nil, fail("%s wants exactly one operand: %[1]s <addr>", traceOps[op])
		}
		// A string conversion that does not escape is not copied to the
		// heap, so base-0 syntax stays strconv's at no allocation.
		addr, err := strconv.ParseInt(string(fields[1]), 0, 64)
		switch {
		case err != nil:
			return nil, fail("bad address %q", fields[1])
		case addr < 0:
			return nil, fail("negative address %q", fields[1])
		case addr > maxTraceAddr:
			return nil, fail("address %q past the %d-byte address space", fields[1], int64(maxTraceAddr+1))
		}
		switch op {
		case tango.Write:
			if _, err := strconv.ParseInt(string(fields[2]), 0, 64); err != nil {
				return nil, fail("bad value %q", fields[2])
			}
		case tango.Lock:
			held[addr] = true
		case tango.Unlock:
			// The machine cannot release a free lock, so an unpaired
			// release is a bad trace, not a simulator fault.
			if !held[addr] {
				return nil, fail("UNLOCK %s of a lock this core does not hold", fields[1])
			}
			delete(held, addr)
		}
		refs = append(refs, tango.MakeRef(op, addr))
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		lineNo++
		return nil, fail("line of %d bytes or more", maxTraceLine)
	} else if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	return refs, nil
}

// writeTrace writes refs as one core's trace, which ParseTrace reads back
// to the same refs, and returns the bytes written. Addresses are hex; a
// write's value is 0.
func writeTrace(w io.Writer, refs []tango.Ref) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var line []byte
	for _, r := range refs {
		op, addr := r.Op(), r.Addr()
		if int(op) >= len(traceOps) || addr > maxTraceAddr {
			return n, fmt.Errorf("trace: no instruction for %v", r)
		}
		line = append(line[:0], traceOps[op]...)
		line = append(line, " 0x"...)
		line = strconv.AppendInt(line, addr, 16)
		if op == tango.Write {
			line = append(line, " 0"...)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return n, err
		}
		n += int64(len(line))
	}
	return n, bw.Flush()
}

// coreFile names processor p's trace file in dir.
func coreFile(dir string, p int) string {
	return filepath.Join(dir, "core_"+strconv.Itoa(p)+".txt")
}

// WriteTraceDir writes wl into dir, creating it if needed, as one
// core_<p>.txt per stream, and returns the bytes written. It refuses,
// before writing any file, a dir that holds a larger trace: overwriting
// only its first cores would leave a trace LoadTraceDir loads at neither
// size.
func WriteTraceDir(dir string, wl *tango.Workload) (int64, error) {
	extra := coreFile(dir, len(wl.Streams))
	if _, err := os.Stat(extra); err == nil {
		return 0, fmt.Errorf("trace %s: %s exists: the directory holds a trace of more than %d cores", dir, extra, len(wl.Streams))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for p, refs := range wl.Streams {
		f, err := os.Create(coreFile(dir, p))
		if err != nil {
			return total, err
		}
		n, err := writeTrace(f, refs)
		total += n
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return total, fmt.Errorf("trace %s: core %d: %w", dir, p, err)
		}
	}
	return total, nil
}

// LoadTraceDir builds a workload from dir's core_0.txt … core_<procs-1>.txt.
// The trace must have exactly procs cores: a missing core is a hole in
// the machine, not an idle processor, and a core_<procs>.txt means a
// larger trace whose other cores' references would be dropped, so both
// fail loudly. SharedBytes is the extent of the touched address space.
func LoadTraceDir(dir string, procs int) (*tango.Workload, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("trace %s: procs must be positive (got %d)", dir, procs)
	}
	extra := coreFile(dir, procs)
	if _, err := os.Stat(extra); err == nil {
		return nil, fmt.Errorf("trace %s: %s exists: the trace has more than %d cores", dir, extra, procs)
	}
	wl := &tango.Workload{Name: "trace:" + filepath.Base(dir)}
	var maxAddr int64 = -1
	for p := 0; p < procs; p++ {
		path := coreFile(dir, p)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("trace %s: core %d of %d: %w", dir, p, procs, err)
		}
		refs, perr := ParseTrace(f, path)
		f.Close()
		if perr != nil {
			return nil, perr
		}
		for _, r := range refs {
			maxAddr = max(maxAddr, r.Addr())
		}
		wl.Streams = append(wl.Streams, refs)
	}
	wl.SharedBytes = maxAddr + tango.WordBytes
	if maxAddr < 0 {
		wl.SharedBytes = 0
	}
	return wl, nil
}
