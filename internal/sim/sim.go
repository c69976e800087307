// Package sim provides the deterministic discrete-event scheduler the
// machine core runs on: a timing wheel (see wheel.go) whose events are
// typed values at integer cycle times.
//
// Events fire in ascending (time, key) order, with keys the caller
// chooses (AtKey), so a run is fully reproducible and, when keys derive
// from the scheduling context, independent of insertion order. The wheel
// never interprets an event: it hands each one back to its owner, which
// dispatches on the stage.
package sim

// Time is a simulation timestamp in processor cycles.
type Time = uint64

// Event is one scheduled event: a stage its owner dispatches on and an
// operand index the stage reads its operands through (a processor, or a
// record the owner keeps). Events are values, so scheduling one allocates
// nothing.
type Event struct {
	Stage uint32
	Arg   uint32
}
