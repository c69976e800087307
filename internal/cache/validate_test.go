package cache

import (
	"errors"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	ok := Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16}
	if err := ok.Validate(); err != nil {
		t.Fatalf("legal config rejected: %v", err)
	}
	cases := []struct {
		name, level string
		cfg         Config
	}{
		{"zero block", "L1", Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2}},
		{"L1 not set-divisible", "L1", Config{L1Size: 256, L1Assoc: 3, L2Size: 1024, L2Assoc: 2, Block: 16}},
		{"L2 zero assoc", "L2", Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, Block: 16}},
		{"inclusion violated", "L2", Config{L1Size: 1024, L1Assoc: 1, L2Size: 256, L2Assoc: 1, Block: 16}},
		{"L2 past the page index", "L2", Config{L1Size: 256, L1Assoc: 1, L2Size: 1 << 35, L2Assoc: 1, Block: 16}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		var ge *GeometryError
		if !errors.As(err, &ge) {
			t.Errorf("%s: Validate = %v, want *GeometryError", tc.name, err)
			continue
		}
		if ge.Level != tc.level {
			t.Errorf("%s: blamed level %q, want %q (%v)", tc.name, ge.Level, tc.level, err)
		}
	}
}

// TestValidateMatchesConstructor: any config Validate accepts must build,
// and any it rejects must panic — the two must never disagree.
func TestValidateMatchesConstructor(t *testing.T) {
	cfgs := []Config{
		{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
		{L1Size: 512, L1Assoc: 2, L2Size: 512, L2Assoc: 4, Block: 32},
		{L1Size: 100, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
		{L1Size: 1 << 20, L1Assoc: 1, L2Size: 1024, L2Assoc: 1, Block: 16},
	}
	for _, cfg := range cfgs {
		wantErr := cfg.Validate() != nil
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewHierarchy(cfg)
			return false
		}()
		if wantErr != panicked {
			t.Errorf("config %+v: Validate err=%v but constructor panic=%v", cfg, wantErr, panicked)
		}
	}
}
