package exp

import (
	"testing"

	"dircoh/internal/check"
	"dircoh/internal/machine"
)

// TestObserverCheckHook: a session built with Observer.Check must turn
// the invariant checker on for every run, route its sink per run label,
// and leave the results untouched on a correct protocol.
func TestObserverCheckHook(t *testing.T) {
	base := ts.RunApp("FFT", 4, "base", machine.FullVec)

	sinks := map[string]*check.MemSink{}
	s := NewSession(Observer{Check: func(run string) check.Sink {
		ms := &check.MemSink{}
		sinks[run] = ms
		return ms
	}}, 0)

	checked := s.RunApp("FFT", 4, "base", machine.FullVec)
	if len(sinks) != 1 {
		t.Fatalf("Check hook called for %d runs, want 1 (%v)", len(sinks), sinks)
	}
	ms, ok := sinks["FFT/base"]
	if !ok {
		t.Fatalf("sink keyed by %v, want run label FFT/base", sinks)
	}
	if len(ms.Violations) != 0 {
		t.Fatalf("clean run recorded violations: %v", ms.Violations)
	}
	if checked.Result.ExecTime != base.Result.ExecTime {
		t.Fatalf("checker changed the result: %d vs %d cycles",
			checked.Result.ExecTime, base.Result.ExecTime)
	}
}
