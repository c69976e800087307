package machine

import (
	"math/rand"
	"strings"
	"testing"

	"dircoh/internal/cache"
	"dircoh/internal/tango"
)

// mustPanicNaming runs fn and fails unless it panics with a message that
// contains want.
func mustPanicNaming(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not name %q", r, want)
		}
	}()
	fn()
}

// TestRecordMisusePanics: releasing an event record twice, or firing an
// event whose record (or envelope) was already released, panics and names
// the stage.
func TestRecordMisusePanics(t *testing.T) {
	m, err := New(testConfig(4, FullVec))
	if err != nil {
		t.Fatal(err)
	}
	i, r := m.recs.take(stWriteback)
	r.h, r.c, r.b = m.clusters[1], m.clusters[2], 5
	m.recs.release(i, stWriteback)
	mustPanicNaming(t, "stage writeback released record", func() { m.recs.release(i, stWriteback) })
	mustPanicNaming(t, "stage sharingWB fired on released record", func() { m.fire(recEv(stSharingWB, i)) })

	j, _ := m.envs.take(stDeliver)
	m.envs.release(j, stDeliver)
	mustPanicNaming(t, "stage deliver fired on released record", func() { m.fire(recEv(stDeliver, j)) })
	mustPanicNaming(t, "stage timeout fired on released record", func() { m.fire(recEv(stTimeout, j)) })
}

// TestRunReleasesEveryRecord: a finished fault-free run holds no event
// record, and a finished run under the fault model holds no envelope
// (every chain's last stage released what its first stage took).
func TestRunReleasesEveryRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, faults := range []bool{false, true} {
		cfg := testConfig(8, CoarseVec2)
		cfg.Sparse = SparseConfig{Entries: 4, Assoc: 2}
		if faults {
			cfg.Mesh.Faults.Drop, cfg.Mesh.Faults.Dup = 0.02, 0.02
		}
		m, _ := mustRun(t, cfg, wl(stressStreams(rng, 8, 300, 24, true)...))
		if n := m.recs.live(); n != 0 {
			t.Errorf("faults=%v: %d records still held after the run", faults, n)
		}
		if n := m.envs.live(); n != 0 {
			t.Errorf("faults=%v: %d envelopes still held after the run", faults, n)
		}
	}
}

// TestCheckCoherenceReportsLowestBlock corrupts a finished machine with
// two violations — block hi dirty in two caches, and a remote shared copy
// of block lo its directory entry does not record — and requires the
// lower block's error on every call, whatever order the caches list
// their lines in.
func TestCheckCoherenceReportsLowestBlock(t *testing.T) {
	m, _ := mustRun(t, testConfig(4, FullVec), wl(
		[]tango.Ref{tango.MakeRef(tango.Write, addr(40))},
		nil, nil, nil,
	))
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	const lo, hi = int64(100), int64(900)
	// lo is homed at cluster 0; record cluster 1 as its only sharer, then
	// cache it in cluster 2 as well.
	if m.home(lo) != 0 || m.home(hi) != 0 {
		t.Fatalf("blocks homed at %d and %d, want 0", m.home(lo), m.home(hi))
	}
	e, _ := m.clusters[0].dir.Allocate(m.dirKey(lo), 0)
	e.AddSharer(1)
	m.procs[1].h.Fill(lo, cache.Shared, 0)
	m.procs[2].h.Fill(lo, cache.Shared, 0)
	m.procs[3].h.Fill(hi, cache.Dirty, 0)
	m.procs[1].h.Fill(hi, cache.Dirty, 0)
	want := "block 100 cached in cluster 2 but not in directory sharer set"
	for call := 0; call < 20; call++ {
		err := m.CheckCoherence()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("call %d: %v, want %q", call, err, want)
		}
	}
	// With lo repaired, hi's double ownership is reported.
	e.AddSharer(2)
	if err := m.CheckCoherence(); err == nil || !strings.Contains(err.Error(), "block 900 dirty in 2 caches") {
		t.Fatalf("after repairing block 100: %v", err)
	}
}
