// Package replay pins the textual grammar of cmd/protostress replay
// lines. protostress prints a Line for every failing trial, and
// cmd/modelcheck prints one next to each counterexample so a model-level
// finding can immediately be hammered dynamically; the parser keeps the
// grammar honest (a printed line always loads back), so reproduction
// lines stored in bug reports survive flag refactors.
package replay

import (
	"fmt"
	"strconv"
	"strings"
)

// Line is one protostress invocation in replay-line form. The zero value
// is not meaningful; build lines with explicit fields or Parse. Field
// defaults applied by Parse mirror the command's flag defaults, so a
// hand-shortened line means what the command would do.
type Line struct {
	Trials   int
	Seed     int64
	Procs    []int
	Refs     int
	Blocks   int
	Fault    string // "none", "drop-inval" or "skip-recall"
	Faults   string // mesh fault spec or "campaign"; empty omits the flag
	Wedge    bool
	NoCheck  bool // renders as -check=false; the checker is on by default
	Shards   int  // 0 and the default 1 omit the flag
	Parallel int  // 0 omits the flag
	Verbose  bool
}

// String renders the line exactly as protostress prints it.
func (l Line) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protostress -trials %d -seed %d -procs %s -refs %d -blocks %d -fault %s",
		l.Trials, l.Seed, joinInts(l.Procs), l.Refs, l.Blocks, l.Fault)
	if l.Faults != "" {
		fmt.Fprintf(&b, " -faults %s", l.Faults)
	}
	if l.Wedge {
		b.WriteString(" -wedge")
	}
	if l.NoCheck {
		b.WriteString(" -check=false")
	}
	if l.Shards > 1 {
		fmt.Fprintf(&b, " -shards %d", l.Shards)
	}
	if l.Parallel > 0 {
		fmt.Fprintf(&b, " -parallel %d", l.Parallel)
	}
	if l.Verbose {
		b.WriteString(" -v")
	}
	return b.String()
}

// Parse loads a replay line back into its fields. Unset flags take the
// command's defaults. Unknown flags, malformed values and out-of-range
// parameters are errors — the grammar is pinned, not merely suggested.
func Parse(s string) (Line, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || fields[0] != "protostress" {
		return Line{}, fmt.Errorf("replay: line must start with \"protostress\"")
	}
	l := Line{Trials: 64, Seed: 1, Procs: []int{4, 6, 8}, Refs: 300, Blocks: 24, Fault: "none"}
	i := 1
	value := func(flag string) (string, error) {
		if i >= len(fields) {
			return "", fmt.Errorf("replay: flag %s needs a value", flag)
		}
		v := fields[i]
		i++
		return v, nil
	}
	intValue := func(flag string) (int, error) {
		v, err := value(flag)
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("replay: flag %s wants a positive integer, got %q", flag, v)
		}
		return n, nil
	}
	for i < len(fields) {
		flag := fields[i]
		i++
		var err error
		switch flag {
		case "-trials":
			l.Trials, err = intValue(flag)
		case "-seed":
			var v string
			if v, err = value(flag); err == nil {
				l.Seed, err = strconv.ParseInt(v, 10, 64)
				if err != nil {
					err = fmt.Errorf("replay: flag -seed wants an integer, got %q", v)
				}
			}
		case "-procs":
			var v string
			if v, err = value(flag); err == nil {
				l.Procs, err = parseInts(v)
			}
		case "-refs":
			l.Refs, err = intValue(flag)
		case "-blocks":
			l.Blocks, err = intValue(flag)
		case "-fault":
			if l.Fault, err = value(flag); err == nil {
				switch l.Fault {
				case "none", "drop-inval", "skip-recall":
				default:
					err = fmt.Errorf("replay: unknown -fault %q (want none, drop-inval or skip-recall)", l.Fault)
				}
			}
		case "-faults":
			l.Faults, err = value(flag)
		case "-wedge":
			l.Wedge = true
		case "-check=false":
			l.NoCheck = true
		case "-check", "-check=true":
			l.NoCheck = false
		case "-shards":
			l.Shards, err = intValue(flag)
		case "-parallel":
			l.Parallel, err = intValue(flag)
		case "-v":
			l.Verbose = true
		default:
			err = fmt.Errorf("replay: unknown flag %q", flag)
		}
		if err != nil {
			return Line{}, err
		}
	}
	return l, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("replay: bad -procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
