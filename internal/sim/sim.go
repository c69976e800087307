// Package sim provides the deterministic discrete-event scheduler the
// machine core runs on: a timing wheel (see wheel.go) whose events are
// callbacks at integer cycle times.
//
// Events fire in ascending (time, key) order. At assigns keys in insertion
// order; AtKey lets the caller impose an explicit order on equal-time
// events, so a run is fully reproducible and, when keys derive from the
// scheduling context, independent of which worker scheduled what first.
package sim

// Time is a simulation timestamp in processor cycles.
type Time = uint64

// Event is a scheduled callback.
type Event func()
