package machine_test

import (
	"io"
	"testing"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
)

// BenchmarkObservers prices each observer over one fixed run: New + Run
// of Figure 7's LU under Dir32 at 32 processors with nothing attached,
// and with each observer alone. The workload is built once, outside the
// timed loop.
func BenchmarkObservers(b *testing.B) {
	w := exp.Workload("LU", exp.Procs)
	jsonl := func() *obs.JSONLSink { return obs.NewJSONLSink(io.Discard).Sub("LU/Dir32") }
	for _, bc := range []struct {
		name    string
		observe func(*machine.Config)
	}{
		{"none", func(*machine.Config) {}},
		{"check", func(c *machine.Config) { c.Check = true }},
		{"spans-discard", func(c *machine.Config) { c.Spans = obs.NewSpanRecorder(obs.Discard, 0) }},
		{"trace-discard", func(c *machine.Config) { c.Trace = obs.NewTracer(obs.Discard, 0) }},
		{"spans-jsonl", func(c *machine.Config) { c.Spans = obs.NewSpanRecorder(jsonl(), 0) }},
		{"trace-jsonl", func(c *machine.Config) { c.Trace = obs.NewTracer(jsonl(), 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(machine.FullVec)
				bc.observe(&cfg)
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(w); err != nil {
					b.Fatal(err)
				}
				if err := m.FlushTrace(); err != nil {
					b.Fatal(err)
				}
				if err := m.FlushSpans(); err != nil {
					b.Fatal(err)
				}
				if err := m.CheckErr(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
