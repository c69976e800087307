package config

import (
	"errors"
	"strings"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/core"
	"dircoh/internal/machine"
)

func TestLoadMinimal(t *testing.T) {
	s, err := Load(strings.NewReader(`{"runs":[{"app":"LU"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 1 || s.Runs[0].Name != "LU/full" {
		t.Fatalf("suite = %+v", s)
	}
	cfg, err := s.Runs[0].Machine.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 32 || cfg.Block != 16 || cfg.ProcsPerCluster != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestLoadFull(t *testing.T) {
	src := `{
	  "runs": [{
	    "name": "sparse cv",
	    "app": "MP3D",
	    "machine": {
	      "procs": 16,
	      "procsPerCluster": 4,
	      "block": 32,
	      "scheme": {"kind": "cv", "ptrs": 4, "region": 4},
	      "cache": {"l1": 1024, "l2": 4096, "l2Assoc": 2},
	      "sparse": {"entries": 64, "assoc": 2, "policy": "rand"},
	      "barrier": "tree",
	      "portTime": 4,
	      "seed": 7
	    }
	  }]
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Runs[0].Machine.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 16 || cfg.ProcsPerCluster != 4 || cfg.Block != 32 {
		t.Fatalf("machine wrong: %+v", cfg)
	}
	if cfg.Cache.L2Size != 4096 || cfg.Cache.L2Assoc != 2 || cfg.Cache.L1Size != 1024 {
		t.Fatalf("cache wrong: %+v", cfg.Cache)
	}
	if cfg.Sparse.Entries != 64 || cfg.Sparse.Assoc != 2 {
		t.Fatalf("sparse wrong: %+v", cfg.Sparse)
	}
	if cfg.Barrier != machine.TreeBarrier || cfg.Mesh.PortTime != 4 || cfg.Seed != 7 {
		t.Fatalf("options wrong: %+v", cfg)
	}
	if got := core.Must(cfg.Scheme(cfg.Clusters())).Name(); got != "Dir4CV4" {
		t.Fatalf("scheme = %q", got)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty runs":     `{"runs":[]}`,
		"no app":         `{"runs":[{}]}`,
		"unknown field":  `{"runs":[{"app":"LU","typo":1}]}`,
		"invalid json":   `{`,
		"unknown policy": `{"runs":[{"app":"LU","machine":{"sparse":{"entries":8,"policy":"fifo"}}}]}`,
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestLoadValidatesMachine: a machine that builds but that
// machine.Config.Validate refuses fails the whole load, naming the run and
// the fault, so no earlier run starts before it.
func TestLoadValidatesMachine(t *testing.T) {
	cases := map[string]string{
		`{"runs":[{"app":"FFT"},{"app":"FFT","machine":{"block":4}}]}`: "run 1: machine: Block (4) must be at least one 8-byte word",
		`{"runs":[{"app":"FFT","machine":{"cache":{"l1Assoc":3}}}]}`:   "not divisible into 3-way sets",
	}
	for src, want := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%s) = %v, want an error containing %q", src, err, want)
		}
	}
}

// TestLoadUnknownApp: an app that is neither registered nor trace:<dir>
// fails the whole load with *apps.UnknownAppError, so no run starts; a
// trace directory is read only when its run is built.
func TestLoadUnknownApp(t *testing.T) {
	_, err := Load(strings.NewReader(`{"runs":[{"app":"LU"},{"app":"lu.trace"}]}`))
	var unknown *apps.UnknownAppError
	if !errors.As(err, &unknown) || unknown.Name != "lu.trace" {
		t.Fatalf("err = %v, want *apps.UnknownAppError naming lu.trace", err)
	}
	if _, err := Load(strings.NewReader(`{"runs":[{"app":"trace:no/such/dir"}]}`)); err != nil {
		t.Fatalf("trace:<dir> rejected at load: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []MachineSpec{
		{Scheme: SchemeSpec{Kind: "bogus"}},
		{Sparse: &SparseSpec{Entries: 8, Policy: "bogus"}},
		{Barrier: "bogus"},
		{Overflow: &OverflowSpec{Ptrs: 2, WideEntries: 8, Policy: "bogus"}},
	}
	for i, spec := range cases {
		if _, err := spec.Build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestOverflowSpec(t *testing.T) {
	spec := MachineSpec{Overflow: &OverflowSpec{Ptrs: 2, WideEntries: 16, Assoc: 2}}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Overflow == nil || cfg.Overflow.WideEntries != 16 {
		t.Fatalf("overflow wrong: %+v", cfg.Overflow)
	}
}

// TestEndToEnd builds and runs a tiny suite-defined machine.
func TestEndToEnd(t *testing.T) {
	s, err := Load(strings.NewReader(
		`{"runs":[{"app":"FFT","machine":{"procs":4,"scheme":{"kind":"cv"}}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	run := s.Runs[0]
	cfg, err := run.Machine.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := apps.ByName(run.App, cfg.Procs)
	if w == nil {
		t.Fatalf("unknown app %q", run.App)
	}
	r, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if r.ExecTime == 0 {
		t.Fatal("no work done")
	}
}
