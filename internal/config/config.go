// Package config loads machine and experiment-suite descriptions from
// JSON, so whole evaluation campaigns can be specified declaratively and
// replayed (cmd/suite). Every field has the paper's defaults; a minimal
// spec like {"app":"LU"} is a valid run.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/core"
	"dircoh/internal/machine"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
)

// SchemeSpec selects a directory entry scheme.
type SchemeSpec struct {
	Kind   string `json:"kind"`   // full | cv | b | nb | x or notation like Dir3CV2 (default full)
	Ptrs   int    `json:"ptrs"`   // pointers for limited schemes (default 3; 2 for x)
	Region int    `json:"region"` // coarse vector region size (default 2)
}

// Factory resolves the spec to a machine.SchemeFactory via the core
// scheme registry.
func (s SchemeSpec) Factory() (machine.SchemeFactory, error) {
	f, err := core.ParseSpec(s.Kind, s.Ptrs, s.Region)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return f, nil
}

// CacheSpec sizes the processor cache hierarchy (bytes).
type CacheSpec struct {
	L1      int `json:"l1"`      // default 64 KiB
	L1Assoc int `json:"l1Assoc"` // default 1
	L2      int `json:"l2"`      // default 256 KiB
	L2Assoc int `json:"l2Assoc"` // default 1
}

// SparseSpec enables the sparse directory.
type SparseSpec struct {
	Entries int    `json:"entries"`
	Assoc   int    `json:"assoc"`  // default 4
	Policy  string `json:"policy"` // lru | rand | lra (default lru)
}

// OverflowSpec enables the §7 two-level directory.
type OverflowSpec struct {
	Ptrs        int    `json:"ptrs"`
	WideEntries int    `json:"wideEntries"`
	Assoc       int    `json:"assoc"`
	Policy      string `json:"policy"`
}

// MachineSpec is the JSON form of machine.Config.
type MachineSpec struct {
	Procs           int           `json:"procs"`           // default 32
	ProcsPerCluster int           `json:"procsPerCluster"` // default 1
	Block           int           `json:"block"`           // default 16
	Scheme          SchemeSpec    `json:"scheme"`
	Cache           *CacheSpec    `json:"cache"`
	Sparse          *SparseSpec   `json:"sparse"`
	Overflow        *OverflowSpec `json:"overflow"`
	Barrier         string        `json:"barrier"`  // central | tree
	PortTime        uint64        `json:"portTime"` // network ejection occupancy
	Seed            int64         `json:"seed"`
}

// Build resolves the spec into a validated machine.Config.
func (s *MachineSpec) Build() (machine.Config, error) {
	f, err := s.Scheme.Factory()
	if err != nil {
		return machine.Config{}, err
	}
	cfg := machine.DefaultConfig(f)
	if s.Procs > 0 {
		cfg.Procs = s.Procs
	}
	if s.ProcsPerCluster > 0 {
		cfg.ProcsPerCluster = s.ProcsPerCluster
	}
	if s.Block > 0 {
		cfg.Block = s.Block
		cfg.Cache.Block = s.Block
	}
	if s.Cache != nil {
		cc := cache.Config{
			L1Size: 64 << 10, L1Assoc: 1,
			L2Size: 256 << 10, L2Assoc: 1,
			Block: cfg.Block,
		}
		if s.Cache.L1 > 0 {
			cc.L1Size = s.Cache.L1
		}
		if s.Cache.L1Assoc > 0 {
			cc.L1Assoc = s.Cache.L1Assoc
		}
		if s.Cache.L2 > 0 {
			cc.L2Size = s.Cache.L2
		}
		if s.Cache.L2Assoc > 0 {
			cc.L2Assoc = s.Cache.L2Assoc
		}
		cfg.Cache = cc
	}
	if s.Sparse != nil {
		pol, err := sparse.ParsePolicy(s.Sparse.Policy)
		if err != nil {
			return machine.Config{}, fmt.Errorf("config: %w", err)
		}
		assoc := s.Sparse.Assoc
		if assoc <= 0 {
			assoc = 4
		}
		cfg.Sparse = machine.SparseConfig{Entries: s.Sparse.Entries, Assoc: assoc, Policy: pol}
	}
	if s.Overflow != nil {
		pol, err := sparse.ParsePolicy(s.Overflow.Policy)
		if err != nil {
			return machine.Config{}, fmt.Errorf("config: %w", err)
		}
		cfg.Overflow = &machine.OverflowDirConfig{
			Ptrs:        s.Overflow.Ptrs,
			WideEntries: s.Overflow.WideEntries,
			Assoc:       s.Overflow.Assoc,
			Policy:      pol,
		}
	}
	switch strings.ToLower(s.Barrier) {
	case "", "central":
		cfg.Barrier = machine.CentralBarrier
	case "tree":
		cfg.Barrier = machine.TreeBarrier
	default:
		return machine.Config{}, fmt.Errorf("config: unknown barrier kind %q", s.Barrier)
	}
	cfg.Mesh.PortTime = sim.Time(s.PortTime)
	cfg.Seed = s.Seed
	if err := cfg.Validate(); err != nil {
		return machine.Config{}, err
	}
	return cfg, nil
}

// RunSpec is one experiment: an application on a machine.
type RunSpec struct {
	Name    string      `json:"name"` // display label (default: app + scheme)
	App     string      `json:"app"`  // LU | DWF | MP3D | LocusRoute | FFT | trace:<dir>
	Machine MachineSpec `json:"machine"`
}

// Suite is a list of runs.
type Suite struct {
	Runs []RunSpec `json:"runs"`
}

// Load parses a suite from JSON, rejecting unknown fields, applications
// that apps.Resolve does not name (*apps.UnknownAppError) and machines
// that do not build (an unknown scheme, policy or barrier, or a geometry
// machine.Config.Validate refuses) so typos fail loudly before any run
// starts.
func Load(r io.Reader) (*Suite, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("config: suite has no runs")
	}
	for i := range s.Runs {
		if s.Runs[i].App == "" {
			return nil, fmt.Errorf("config: run %d has no app", i)
		}
		if _, err := apps.Resolve(s.Runs[i].App); err != nil {
			return nil, fmt.Errorf("config: run %d: %w", i, err)
		}
		if _, err := s.Runs[i].Machine.Build(); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		if s.Runs[i].Name == "" {
			kind := s.Runs[i].Machine.Scheme.Kind
			if kind == "" {
				kind = "full"
			}
			s.Runs[i].Name = s.Runs[i].App + "/" + kind
		}
	}
	return &s, nil
}
