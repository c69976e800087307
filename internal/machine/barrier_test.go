package machine

import (
	"testing"

	"dircoh/internal/sim"
	"dircoh/internal/tango"
)

// TestBarrierEpisodesReuseState: repeated tree and central barriers on one
// address allocate nothing after the first episode. A cluster's tree nodes
// and the central table's per-address state outlive their episode and
// serve the next one.
func TestBarrierEpisodesReuseState(t *testing.T) {
	for _, kind := range []BarrierKind{TreeBarrier, CentralBarrier} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig(FullVec)
			cfg.Procs, cfg.ProcsPerCluster = 32, 2
			cfg.Barrier = kind
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const addr = 4096
			slots := sim.Time(sim.DefaultWheelSlots)
			episode := func() {
				// Each episode starts at the same wheel offset, so its events
				// land in slots whose arrays the first episode grew.
				start := (m.now()/slots + 1) * slots
				m.w.AtKey(start, 0, sim.Event{Stage: uint32(stNop)})
				m.w.RunUntil(start, m.fire)
				for _, p := range m.procs {
					p.syncOp, p.syncAddr = tango.Barrier, addr
					m.runSync(p)
				}
				m.w.RunUntil(never, m.fire)
				for _, p := range m.procs {
					if p.finish <= start {
						t.Fatalf("proc %d not released (finished t=%d, episode began t=%d)", p.id, p.finish, start)
					}
				}
			}
			episode()
			if a := testing.AllocsPerRun(20, episode); a != 0 {
				t.Fatalf("a repeated %v episode allocates %v times", kind, a)
			}
		})
	}
}
