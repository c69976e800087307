package exp

import (
	"sync"

	"dircoh/internal/runner"
	"dircoh/internal/stats"
)

// Session binds one experiment campaign's execution policy: the
// observability hooks installed on every run, the worker pool independent
// simulations are spread across, and the job meter the sweep footer reads.
// Every driver (SchemeComparison, SparsePerformance, Sweep, ...) is a
// Session method; two sessions never share state, so tests and tools can
// run campaigns concurrently with different instrumentation.
//
// Every driver lays out its run grid as an indexed job list, collects
// results in submission order, and only then renders tables — so output
// is byte-identical at any Parallelism. Each simulation runs on one
// goroutine (see internal/machine); parallelism is across runs only.
type Session struct {
	mu    sync.RWMutex
	obs   Observer
	pool  *runner.Pool
	meter stats.JobMeter
}

// NewSession builds a session running at most parallel simulations
// concurrently (<= 0 selects GOMAXPROCS), observed by o.
func NewSession(o Observer, parallel int) *Session {
	return &Session{obs: o, pool: runner.New(parallel)}
}

// Observer returns the session's observability hooks.
func (s *Session) Observer() Observer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// Parallelism returns the concurrency bound of the session's pool.
func (s *Session) Parallelism() int { return s.runPool().Workers() }

// Meter exposes the session's job metrics; callers Reset() it before a
// campaign and Summary() it after.
func (s *Session) Meter() *stats.JobMeter { return &s.meter }

func (s *Session) runPool() *runner.Pool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool
}

// collectRuns executes n independent simulations on the session's pool
// and returns them indexed by job number.
func (s *Session) collectRuns(n int, job func(i int) Run) []Run {
	return runner.Collect(s.runPool(), n, job)
}
