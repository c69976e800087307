package obs

import (
	"sync"
	"sync/atomic"
)

// LiveSample is one in-run progress snapshot: how far the simulation has
// advanced and what the metrics registry held at the publish point. A
// sample is immutable once published — publishers build a fresh one each
// time — so readers on other goroutines (the -pprof server's /metrics and
// /progress handlers) can walk it without locks.
type LiveSample struct {
	// Cycles is the simulation time reached.
	Cycles uint64 `json:"cycles"`
	// Events is the number of simulation events fired so far.
	Events uint64 `json:"events"`
	// Done is true on the final sample published when the run completes.
	Done bool `json:"done"`
	// Metrics is the registry snapshot at the publish point.
	Metrics Snapshot `json:"metrics"`
}

// LiveRun is one run's atomically-published sample slot. The simulation
// goroutine publishes; any number of reader goroutines load. The zero
// value is not usable — obtain runs from a Live registry.
type LiveRun struct {
	label string
	cur   atomic.Pointer[LiveSample]
}

// Label returns the run label the slot was registered under.
func (r *LiveRun) Label() string { return r.label }

// Publish installs s as the latest sample. s must not be mutated after
// the call.
func (r *LiveRun) Publish(s *LiveSample) { r.cur.Store(s) }

// Latest returns the most recently published sample, or nil if the run
// has not published yet.
func (r *LiveRun) Latest() *LiveSample { return r.cur.Load() }

// Live is a registry of in-flight runs for live observation: each run a
// command starts registers a LiveRun slot here, and the command's HTTP
// endpoints list and read them. Safe for concurrent use.
type Live struct {
	mu   sync.Mutex
	runs map[string]*LiveRun
	// order preserves registration order for stable listings.
	order []string
}

// NewLive returns an empty live-run registry.
func NewLive() *Live {
	return &Live{runs: make(map[string]*LiveRun)}
}

// Run returns the slot registered under label, creating it if needed.
// Repeated runs under one label (reps of a benchmark cell, say) share a
// slot; the latest publisher wins, which is the right reading for "what
// is this run doing now".
func (l *Live) Run(label string) *LiveRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.runs[label]
	if !ok {
		r = &LiveRun{label: label}
		l.runs[label] = r
		l.order = append(l.order, label)
	}
	return r
}

// Runs returns every registered slot in registration order.
func (l *Live) Runs() []*LiveRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*LiveRun, len(l.order))
	for i, label := range l.order {
		out[i] = l.runs[label]
	}
	return out
}
