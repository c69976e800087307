package exp

import (
	"fmt"

	"dircoh/internal/apps"
	"dircoh/internal/config"
	"dircoh/internal/machine"
	"dircoh/internal/stats"
)

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
	build, err := apps.Resolve(run.App)
	if err != nil {
		return nil, &RunError{Run: run.Name, Stage: "build", Err: err}
	}
	w, err := build(cfg.Procs)
	if err != nil {
		return nil, &RunError{Run: run.Name, Stage: "build", Err: err}
	}
	return s.RunConfigured(run.Name, w, cfg)
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
