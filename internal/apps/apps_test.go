package apps

import (
	"testing"

	"dircoh/internal/tango"
)

func TestLUPivotReadByAll(t *testing.T) {
	const procs = 4
	w := LU(LUConfig{Procs: procs, N: 8})
	if w.Procs() != procs {
		t.Fatalf("Procs = %d", w.Procs())
	}
	// Column 0 occupies words [0,8): every processor must read some of it
	// (the pivot column is read by all just after the pivot step).
	for q := 0; q < procs; q++ {
		found := false
		for _, r := range w.Streams[q] {
			if r.Op() == tango.Read && r.Addr() < 8*tango.WordBytes {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("proc %d never reads the pivot column", q)
		}
	}
}

func TestLUHasBarriersAndWrites(t *testing.T) {
	w := LU(LUConfig{Procs: 2, N: 6})
	c := w.Characterize()
	if c.SyncOps == 0 {
		t.Fatal("LU needs barriers")
	}
	if c.SharedWrites == 0 || c.SharedReads <= c.SharedWrites {
		t.Fatalf("LU should be read-dominated: %+v", c)
	}
	if c.SharedBytes < 6*6*tango.WordBytes {
		t.Fatalf("SharedBytes = %d too small", c.SharedBytes)
	}
}

func TestDWFPatternReadOnlyAndShared(t *testing.T) {
	cfg := DWFConfig{Procs: 3, Pattern: 8, Chunks: 4, ChunkWords: 8, RowWords: 4}
	w := DWF(cfg)
	patEnd := int64(8 * tango.WordBytes)
	for q, s := range w.Streams {
		reads := 0
		for _, r := range s {
			if r.Addr() < patEnd {
				if r.Op() == tango.Write {
					t.Fatalf("proc %d writes the read-only pattern", q)
				}
				if r.Op() == tango.Read {
					reads++
				}
			}
		}
		if reads == 0 {
			t.Fatalf("proc %d never reads the pattern", q)
		}
	}
}

func TestDWFWavefrontActivity(t *testing.T) {
	// Every processor eventually works on every chunk's worth of phases:
	// stream lengths must be roughly equal.
	w := DWF(DWFConfig{Procs: 4, Pattern: 8, Chunks: 6, ChunkWords: 8, RowWords: 4})
	min, max := len(w.Streams[0]), len(w.Streams[0])
	for _, s := range w.Streams {
		if len(s) < min {
			min = len(s)
		}
		if len(s) > max {
			max = len(s)
		}
	}
	if min == 0 || max-min > max/2 {
		t.Fatalf("unbalanced wavefront: min=%d max=%d", min, max)
	}
}

func TestMP3DMigratoryCells(t *testing.T) {
	w := MP3D(MP3DConfig{Procs: 4, Particles: 8, Cells: 32, Steps: 3, Seed: 1})
	c := w.Characterize()
	if c.SharedWrites == 0 || c.SharedReads == 0 {
		t.Fatalf("MP3D refs missing: %+v", c)
	}
	// Roughly 2 writes per 5 data refs (particle update + cell update).
	ratio := float64(c.SharedWrites) / float64(c.SharedRefs)
	if ratio < 0.3 || ratio > 0.5 {
		t.Fatalf("write ratio %.2f out of MP3D's range", ratio)
	}
}

func TestMP3DDeterministicForSeed(t *testing.T) {
	a := MP3D(MP3DConfig{Procs: 2, Particles: 4, Cells: 16, Steps: 2, Seed: 7})
	b := MP3D(MP3DConfig{Procs: 2, Particles: 4, Cells: 16, Steps: 2, Seed: 7})
	for q := range a.Streams {
		if len(a.Streams[q]) != len(b.Streams[q]) {
			t.Fatal("stream lengths differ for equal seeds")
		}
		for i := range a.Streams[q] {
			if a.Streams[q][i] != b.Streams[q][i] {
				t.Fatal("streams differ for equal seeds")
			}
		}
	}
}

func TestLocusRouteLocksBalanced(t *testing.T) {
	w := LocusRoute(LocusRouteConfig{Procs: 4, Regions: 4, RegionWords: 32, Wires: 5, Window: 2, Seed: 1})
	c := w.Characterize()
	if c.SyncOps == 0 || c.SyncOps%2 != 0 {
		t.Fatalf("lock/unlock must pair up: %d", c.SyncOps)
	}
	// Locks must strictly alternate lock/unlock per processor.
	for q, s := range w.Streams {
		depth := 0
		for _, r := range s {
			switch r.Op() {
			case tango.Lock:
				depth++
			case tango.Unlock:
				depth--
			}
			if depth < 0 || depth > 1 {
				t.Fatalf("proc %d lock nesting broken", q)
			}
		}
		if depth != 0 {
			t.Fatalf("proc %d leaves a lock held", q)
		}
	}
}

func TestLocusRouteRegionsShared(t *testing.T) {
	// With overlapping windows, some region must be touched by more than
	// 3 processors (to exceed the limited schemes' pointers).
	cfg := LocusRouteConfig{Procs: 8, Regions: 4, RegionWords: 64, Wires: 20, Window: 3, Seed: 1}
	w := LocusRoute(cfg)
	gridEnd := int64(cfg.Regions*cfg.RegionWords) * tango.WordBytes
	byRegion := map[int64]map[int]bool{}
	for q, s := range w.Streams {
		for _, r := range s {
			if r.Addr() >= gridEnd || r.Op().IsSync() {
				continue
			}
			region := r.Addr() / (int64(cfg.RegionWords) * tango.WordBytes)
			if byRegion[region] == nil {
				byRegion[region] = map[int]bool{}
			}
			byRegion[region][q] = true
		}
	}
	maxSharers := 0
	for _, procs := range byRegion {
		if len(procs) > maxSharers {
			maxSharers = len(procs)
		}
	}
	if maxSharers <= 3 {
		t.Fatalf("max region sharers = %d, want > 3", maxSharers)
	}
}

func TestUniform(t *testing.T) {
	w := Uniform(UniformConfig{Procs: 2, Blocks: 8, Refs: 100, WriteFrac: 3, Seed: 1})
	c := w.Characterize()
	if c.SharedRefs != 200 {
		t.Fatalf("SharedRefs = %d, want 200", c.SharedRefs)
	}
	if c.SharedWrites == 0 {
		t.Fatal("expected writes")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if w := ByName(name, 2); w == nil || w.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if ByName("nosuch", 2) != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { LU(LUConfig{Procs: 0, N: 4}) },
		func() { DWF(DWFConfig{Procs: 1, Chunks: 0}) },
		func() { MP3D(MP3DConfig{Procs: 1}) },
		func() { LocusRoute(LocusRouteConfig{Procs: 1}) },
		func() { Uniform(UniformConfig{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFFTPairwiseSharing(t *testing.T) {
	const procs = 4
	w := FFT(FFTConfig{Procs: procs, Points: 32})
	if w.Procs() != procs {
		t.Fatalf("Procs = %d", w.Procs())
	}
	c := w.Characterize()
	// log2(32) = 5 stages, 8 points per proc: 5*8 = 40 writes per proc.
	if c.SharedWrites != 4*40 {
		t.Fatalf("writes = %d, want 160", c.SharedWrites)
	}
	if c.SharedReads != 2*c.SharedWrites {
		t.Fatalf("reads = %d, want 2x writes", c.SharedReads)
	}
	if c.SyncOps != 4*5 {
		t.Fatalf("sync = %d, want 20 barriers", c.SyncOps)
	}
	// Every proc must read outside its own band in the last stage.
	per := int64(8 * tango.WordBytes)
	for q, s := range w.Streams {
		foreign := false
		for _, r := range s {
			if r.Op() == tango.Read && (r.Addr() < int64(q)*per || r.Addr() >= int64(q+1)*per) {
				foreign = true
				break
			}
		}
		if !foreign {
			t.Fatalf("proc %d never exchanges with a partner", q)
		}
	}
}

func TestFFTByNameAndValidation(t *testing.T) {
	if w := ByName("FFT", 4); w == nil || w.Name != "FFT" {
		t.Fatal("ByName(FFT) failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two points")
		}
	}()
	FFT(FFTConfig{Procs: 4, Points: 48})
}
