// Package campaign makes experiment campaigns durable and resumable: a
// submitted spec (a paper sweep, a declarative suite, or a protocol
// stress campaign) is decomposed into indexed deterministic jobs whose
// outputs are journaled as they complete and periodically compacted into
// atomic checkpoints, so a campaign killed mid-flight — SIGKILL included
// — resumes by re-executing only the unfinished jobs and still assembles
// the byte-identical final result. cmd/simd serves this package over
// HTTP.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"dircoh/internal/apps"
	"dircoh/internal/config"
	"dircoh/internal/exp"
	"dircoh/internal/stats"
	"dircoh/internal/stress"
)

// SweepSpec selects sections of the paper sweep (cmd/sweep).
type SweepSpec struct {
	Only   string `json:"only,omitempty"`   // comma list of section keys ("" / "all" = everything)
	Procs  int    `json:"procs,omitempty"`  // default exp.Procs
	Trials int    `json:"trials,omitempty"` // Figure 2 Monte-Carlo trials (default 2000)
}

// sections returns the validated spec's section keys in canonical order
// (Validate rejects a list ParseSections cannot parse).
func (s *SweepSpec) sections() []string {
	keys, _ := exp.ParseSections(s.Only)
	return keys
}

// StressSpec parameterizes a protocol stress campaign (cmd/protostress
// with the checker on).
type StressSpec struct {
	Trials int    `json:"trials,omitempty"` // default 16
	Seed   int64  `json:"seed,omitempty"`   // default 1
	Procs  []int  `json:"procs,omitempty"`  // default 4,6,8
	Refs   int    `json:"refs,omitempty"`   // default 300
	Blocks int    `json:"blocks,omitempty"` // default 24
	Faults string `json:"faults,omitempty"` // mesh.ParseFaults spec or "campaign"
}

// Spec is one submitted campaign. Exactly the field matching Kind must be
// set.
type Spec struct {
	Kind   string        `json:"kind"` // sweep | suite | stress
	Name   string        `json:"name,omitempty"`
	Sweep  *SweepSpec    `json:"sweep,omitempty"`
	Suite  *config.Suite `json:"suite,omitempty"`
	Stress *StressSpec   `json:"stress,omitempty"`
}

// Validate checks the spec's shape and fills defaults in place. The
// returned spec is what gets persisted, so a resumed campaign re-derives
// the identical job list.
func (s *Spec) Validate() error {
	set := 0
	for _, on := range []bool{s.Sweep != nil, s.Suite != nil, s.Stress != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("campaign: spec must set exactly one of sweep, suite, stress")
	}
	switch s.Kind {
	case "sweep":
		if s.Sweep == nil {
			return fmt.Errorf("campaign: kind %q without a sweep spec", s.Kind)
		}
		if s.Sweep.Procs == 0 {
			s.Sweep.Procs = exp.Procs
		}
		if s.Sweep.Trials == 0 {
			s.Sweep.Trials = 2000
		}
		if s.Sweep.Procs < 0 || s.Sweep.Trials < 0 {
			return fmt.Errorf("campaign: sweep procs and trials must be positive")
		}
		keys, err := exp.ParseSections(s.Sweep.Only)
		if err != nil {
			return fmt.Errorf("campaign: sweep -only: %w", err)
		}
		if len(keys) == 0 {
			return fmt.Errorf("campaign: sweep -only %q selects no sections", s.Sweep.Only)
		}
	case "suite":
		if s.Suite == nil {
			return fmt.Errorf("campaign: kind %q without a suite spec", s.Kind)
		}
		if len(s.Suite.Runs) == 0 {
			return fmt.Errorf("campaign: suite has no runs")
		}
		for i := range s.Suite.Runs {
			r := &s.Suite.Runs[i]
			if r.App == "" {
				return fmt.Errorf("campaign: suite run %d has no app", i)
			}
			// An unknown app or a machine that does not build fails every
			// attempt the same way, so it is refused here instead of
			// retried as a job.
			if _, err := apps.Resolve(r.App); err != nil {
				return fmt.Errorf("campaign: suite run %d: %w", i, err)
			}
			if _, err := r.Machine.Build(); err != nil {
				return fmt.Errorf("campaign: suite run %d: %w", i, err)
			}
			if r.Name == "" {
				kind := r.Machine.Scheme.Kind
				if kind == "" {
					kind = "full"
				}
				r.Name = r.App + "/" + kind
			}
		}
	case "stress":
		if s.Stress == nil {
			return fmt.Errorf("campaign: kind %q without a stress spec", s.Kind)
		}
		if s.Stress.Trials == 0 {
			s.Stress.Trials = 16
		}
		if s.Stress.Seed == 0 {
			s.Stress.Seed = 1
		}
		if len(s.Stress.Procs) == 0 {
			s.Stress.Procs = []int{4, 6, 8}
		}
		if s.Stress.Refs == 0 {
			s.Stress.Refs = 300
		}
		if s.Stress.Blocks == 0 {
			s.Stress.Blocks = 24
		}
		if s.Stress.Trials < 0 || s.Stress.Refs < 0 || s.Stress.Blocks < 0 {
			return fmt.Errorf("campaign: stress trials, refs and blocks must be positive")
		}
		for _, p := range s.Stress.Procs {
			if p <= 0 {
				return fmt.Errorf("campaign: stress procs must be positive")
			}
		}
	default:
		return fmt.Errorf("campaign: unknown kind %q (want sweep, suite or stress)", s.Kind)
	}
	if s.Name == "" {
		s.Name = s.Kind
	}
	return nil
}

// Jobs returns the campaign's deterministic job count: one per selected
// sweep section, suite run, or stress trial.
func (s *Spec) Jobs() int {
	switch s.Kind {
	case "sweep":
		return len(s.Sweep.sections())
	case "suite":
		return len(s.Suite.Runs)
	case "stress":
		return s.Stress.Trials
	}
	return 0
}

// JobLabel names job i for failure records and event streams.
func (s *Spec) JobLabel(i int) string {
	switch s.Kind {
	case "sweep":
		return "section " + s.Sweep.sections()[i]
	case "suite":
		return s.Suite.Runs[i].Name
	case "stress":
		return fmt.Sprintf("trial %d", i)
	}
	return fmt.Sprintf("job %d", i)
}

// jobParallel reports how campaign-level job concurrency and per-job
// session concurrency split the worker budget: sweep sections each fan
// out internally on the session pool, so jobs run one at a time; suite
// and stress jobs are single simulations, so the jobs themselves fan out.
func (s *Spec) jobParallel(workers int) (jobs, session int) {
	if s.Kind == "sweep" {
		return 1, workers
	}
	return workers, 1
}

// stressOptions is the fixed per-campaign execution policy a stress spec
// maps to: checker on, verbose (every trial renders its line), one
// in-process trial at a time (the campaign scheduler provides the
// fan-out).
func (s *StressSpec) options(timeout time.Duration) stress.Options {
	return stress.Options{
		Trials: s.Trials, Seed: s.Seed, Procs: s.Procs, Refs: s.Refs,
		Blocks: s.Blocks, Faults: s.Faults, Check: true, Parallel: 1,
		Verbose: true, Deadline: timeout,
	}
}

// RunJob executes job i under sess and returns its output string — a
// rendered sweep section, a JSON-encoded suite table row, or a rendered
// stress trial block. Outputs are deterministic for a fixed spec and job
// index, which crash/resume correctness rests on. Driver panics (the exp
// drivers raise *exp.RunError) are recovered into errors.
func (s *Spec) RunJob(i int, sess *exp.Session, timeout time.Duration) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("campaign: job %d panicked: %v", i, p)
		}
	}()
	switch s.Kind {
	case "sweep":
		var buf bytes.Buffer
		key := s.Sweep.sections()[i]
		err := sess.RenderSweepSection(&buf, key, s.Sweep.Procs, s.Sweep.Trials, exp.Plain)
		return buf.String(), err
	case "suite":
		r, err := sess.ExecuteSpec(s.Suite.Runs[i])
		if err != nil {
			return "", err
		}
		cells, err := json.Marshal(exp.SuiteRowCells(s.Suite.Runs[i].Name, r))
		return string(cells), err
	case "stress":
		o := s.Stress.options(timeout)
		tr := stress.RunTrial(i, stress.SeedFor(o.Seed, i, o.Trials), o)
		if tr.Err != nil {
			return "", tr.Err
		}
		var buf bytes.Buffer
		tr.Render(&buf, o)
		return buf.String(), nil
	}
	return "", fmt.Errorf("campaign: unknown kind %q", s.Kind)
}

// Assemble renders the campaign's final result from the per-job outputs
// in index order: sweep sections concatenate, suite rows rebuild the
// comparison table, stress trial blocks concatenate. Byte-identical for
// a fixed spec however (and however often) the jobs were executed.
func (s *Spec) Assemble(outs []string) (string, error) {
	switch s.Kind {
	case "suite":
		tb := stats.NewTable(exp.SuiteTableHeader...)
		for i, out := range outs {
			var cells []string
			if err := json.Unmarshal([]byte(out), &cells); err != nil {
				return "", fmt.Errorf("campaign: job %d row: %w", i, err)
			}
			tb.AddRow(cells...)
		}
		return tb.String() + "\n", nil
	default:
		var buf bytes.Buffer
		for _, out := range outs {
			buf.WriteString(out)
		}
		return buf.String(), nil
	}
}
