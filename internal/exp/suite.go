package exp

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/config"
	"dircoh/internal/machine"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
	"dircoh/internal/trace"
)

// LoadWorkload resolves a suite entry's app field into a workload:
//
//   - a registered application name ("LU", "trace", ...),
//   - "trace:<dir>" — a directory of per-core RD/WR text traces
//     (apps.LoadTraceDir),
//   - otherwise a binary trace file path produced by cmd/tracegen.
func LoadWorkload(name string, procs int) (*tango.Workload, error) {
	if dir, ok := strings.CutPrefix(name, "trace:"); ok {
		return apps.LoadTraceDir(dir, procs)
	}
	build, lookupErr := apps.Lookup(name)
	if lookupErr == nil {
		return build(procs), nil
	}
	tf, err := os.Open(name)
	if err != nil {
		var unknown *apps.UnknownAppError
		if errors.As(lookupErr, &unknown) {
			return nil, fmt.Errorf("%w and no such trace file", lookupErr)
		}
		return nil, err
	}
	defer tf.Close()
	return trace.Read(tf)
}

// ExecuteSpec builds and runs one declarative suite entry end to end
// under the session's observer and deadline, returning the
// typed *RunError on failure instead of panicking — the form supervised
// campaign jobs need. The run is labeled run.Name in every observability
// stream.
func (s *Session) ExecuteSpec(run config.RunSpec) (*machine.Result, error) {
	cfg, err := run.Machine.Build()
	if err != nil {
		return nil, &RunError{Run: run.Name, Stage: "build", Err: err}
	}
	w, err := LoadWorkload(run.App, cfg.Procs)
	if err != nil {
		return nil, &RunError{Run: run.Name, Stage: "build", Err: err}
	}
	return s.runConfigured(run.Name, w, cfg)
}

// SuiteTableHeader is the column set of the suite comparison table, shared
// by cmd/suite and the campaign service so a suite campaign's assembled
// result matches the command's output.
var SuiteTableHeader = []string{"run", "scheme", "exec", "msgs", "requests", "replies", "inval+ack", "repl"}

// SuiteRowCells renders one finished run as the suite table's row cells,
// in SuiteTableHeader order.
func SuiteRowCells(name string, r *machine.Result) []string {
	return []string{
		name,
		r.Scheme,
		fmt.Sprintf("%d", r.ExecTime),
		fmt.Sprintf("%d", r.Msgs.Total()),
		fmt.Sprintf("%d", r.Msgs[stats.Request]),
		fmt.Sprintf("%d", r.Msgs[stats.Reply]),
		fmt.Sprintf("%d", r.Msgs.InvalAck()),
		fmt.Sprintf("%d", r.Replacements),
	}
}
