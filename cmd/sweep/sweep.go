package main

import (
	"io"

	"dircoh/internal/exp"
)

// runSweep renders the given sections (parsed by exp.ParseSections) to w.
// It is deterministic for a fixed (keys, procs, trials) triple at any
// parallelism, which the golden-file and determinism tests rely on — keep
// wall-clock output out of here (the footer lives in main). The section
// renderers live in exp.Session so the campaign service can journal and
// resume a sweep section by section; this wrapper keeps the command and
// its goldens.
func runSweep(s *exp.Session, w io.Writer, keys []string, procs, trials int) {
	s.Sweep(w, keys, procs, trials)
}
