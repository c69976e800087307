package apps

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dircoh/internal/tango"
)

// This file gives externally captured reference traces first-class
// workload status: the "trace" application replays per-core text files in
// the RD/WR format both SNIPPETS exemplar simulators consume, so traces
// recorded elsewhere can run through every experiment driver and become
// submittable campaign workloads.
//
// The on-disk layout follows the exemplars: a directory holding one file
// per simulated processor, core_0.txt … core_<procs-1>.txt, each a list of
// instructions:
//
//	RD <addr>          # shared-data load
//	WR <addr> <value>  # shared-data store (the value is validated and
//	                   # discarded — the simulator is reference-driven)
//
// Addresses and values accept decimal or 0x-prefixed hex; an address must
// lie in [0, MaxInt64 - tango.WordBytes]. Blank lines and lines starting
// with '#' are skipped. Every line, comments included, must be shorter
// than maxTraceLine (1 MiB).

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

// ParseTrace reads one core's RD/WR instruction stream. The name is used
// in error messages only.
func ParseTrace(r io.Reader, name string) ([]tango.Ref, error) {
	var refs []tango.Ref
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxTraceLine)
	lineNo := 0
	fail := func(msg string) error {
		return &TraceParseError{File: name, Line: lineNo, Msg: msg}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := strings.ToUpper(fields[0])
		parseAddr := func(s string) (int64, error) {
			addr, err := strconv.ParseInt(s, 0, 64)
			if err != nil {
				return 0, fail(fmt.Sprintf("bad address %q", s))
			}
			if addr < 0 {
				return 0, fail(fmt.Sprintf("negative address %q", s))
			}
			// The workload's extent is the highest address plus a word,
			// which must still fit in an int64.
			if addr > math.MaxInt64-tango.WordBytes {
				return 0, fail(fmt.Sprintf("address %q past the %d-byte address space", s, int64(math.MaxInt64-tango.WordBytes+1)))
			}
			return addr, nil
		}
		switch op {
		case "RD":
			if len(fields) != 2 {
				return nil, fail("RD wants exactly one operand: RD <addr>")
			}
			addr, err := parseAddr(fields[1])
			if err != nil {
				return nil, err
			}
			refs = append(refs, tango.Ref{Op: tango.Read, Addr: addr})
		case "WR":
			if len(fields) != 3 {
				return nil, fail("WR wants exactly two operands: WR <addr> <value>")
			}
			addr, err := parseAddr(fields[1])
			if err != nil {
				return nil, err
			}
			if _, err := strconv.ParseInt(fields[2], 0, 64); err != nil {
				return nil, fail(fmt.Sprintf("bad value %q", fields[2]))
			}
			refs = append(refs, tango.Ref{Op: tango.Write, Addr: addr})
		default:
			return nil, fail(fmt.Sprintf("unknown instruction %q (want RD or WR)", fields[0]))
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		lineNo++
		return nil, fail(fmt.Sprintf("line of %d bytes or more", maxTraceLine))
	} else if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	return refs, nil
}

// LoadTraceDir builds a workload from dir's core_0.txt … core_<procs-1>.txt.
// Every file up to procs must exist: a missing core is a hole in the
// machine, not an idle processor, so it fails loudly. SharedBytes is the
// extent of the touched address space.
func LoadTraceDir(dir string, procs int) (*tango.Workload, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("trace %s: procs must be positive (got %d)", dir, procs)
	}
	wl := &tango.Workload{Name: "trace:" + filepath.Base(dir)}
	var maxAddr int64 = -1
	for p := 0; p < procs; p++ {
		path := filepath.Join(dir, fmt.Sprintf("core_%d.txt", p))
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
			if r.Addr > maxAddr {
				maxAddr = r.Addr
			}
		}
		wl.Streams = append(wl.Streams, refs)
	}
	wl.SharedBytes = maxAddr + tango.WordBytes
	if maxAddr < 0 {
		wl.SharedBytes = 0
	}
	return wl, nil
}

// The directory the registered "trace" application replays. Guarded so
// long-running services can point concurrent campaigns at a configured
// default; per-run directories use the "trace:<dir>" app syntax instead.
var (
	traceDirMu sync.RWMutex
	traceDir   = "examples/traces/pingpong"
)

// SetTraceDir points the registered "trace" application at dir and
// returns the previous value.
func SetTraceDir(dir string) string {
	traceDirMu.Lock()
	defer traceDirMu.Unlock()
	prev := traceDir
	traceDir = dir
	return prev
}

// TraceDir returns the directory the registered "trace" application
// replays.
func TraceDir() string {
	traceDirMu.RLock()
	defer traceDirMu.RUnlock()
	return traceDir
}

func init() {
	// The registry factory signature cannot return an error; a bad trace
	// directory panics with the parse error, which experiment supervisors
	// (the campaign job runner) recover into typed failure records.
	Register("trace", false, func(procs int) *tango.Workload {
		wl, err := LoadTraceDir(TraceDir(), procs)
		if err != nil {
			panic(fmt.Sprintf("apps: %v", err))
		}
		return wl
	})
}
