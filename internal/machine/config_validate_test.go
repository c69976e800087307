package machine

import (
	"strings"
	"testing"

	"dircoh/internal/cache"
)

// TestConfigValidate covers the flag-boundary rejections Validate added
// for the typed-error sweep: each bad configuration must produce an error
// naming the offending field, and New must refuse the same input.
func TestConfigValidate(t *testing.T) {
	base := testConfig(4, FullVec)
	if err := base.Validate(); err != nil {
		t.Fatalf("legal config rejected: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		name, want string
		cfg        Config
	}{
		{"zero procs", "Procs", mut(func(c *Config) { c.Procs = 0 })},
		{"indivisible clustering", "divisible", mut(func(c *Config) { c.ProcsPerCluster = 3 })},
		{"zero block", "Block", mut(func(c *Config) { c.Block = 0; c.Cache = cache.Config{} })},
		{"sub-word block", "Block (4)", mut(func(c *Config) { c.Block = 4; c.Cache = cache.Config{} })},
		{"nil scheme", "Scheme", mut(func(c *Config) { c.Scheme = nil })},
		{"sparse+overflow", "mutually exclusive", mut(func(c *Config) {
			c.Sparse = SparseConfig{Entries: 4}
			c.Overflow = &OverflowDirConfig{Ptrs: 1, WideEntries: 4}
		})},
		{"negative sparse entries", "Sparse.Entries", mut(func(c *Config) { c.Sparse.Entries = -1 })},
		{"cache/machine block mismatch", "differs", mut(func(c *Config) { c.Cache.Block = 32 })},
		{"bad cache geometry", "L1", mut(func(c *Config) { c.Cache.L1Assoc = 3 })},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error mentioning %q", tc.name, err, tc.want)
			continue
		}
		if _, nerr := New(tc.cfg); nerr == nil {
			t.Errorf("%s: New accepted a config Validate rejects", tc.name)
		}
	}
}

func TestParseFault(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Fault
	}{{"", FaultNone}, {"none", FaultNone}, {"drop-inval", FaultDropInval}, {"skip-recall", FaultSkipRecallInval}} {
		f, err := ParseFault(tc.in)
		if err != nil || f != tc.want {
			t.Errorf("ParseFault(%q) = %v, %v; want %v", tc.in, f, err, tc.want)
		}
		if tc.in != "" && f.String() != tc.in && tc.in != "none" {
			t.Errorf("round trip: %q -> %v -> %q", tc.in, f, f.String())
		}
	}
	if _, err := ParseFault("explode"); err == nil {
		t.Error("unknown fault accepted")
	}
}
