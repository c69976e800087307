package replay

import (
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	lines := []Line{
		{Trials: 1, Seed: 7, Procs: []int{4, 6, 8}, Refs: 300, Blocks: 24, Fault: "none", Verbose: true},
		{Trials: 1, Seed: -3, Procs: []int{2}, Refs: 40, Blocks: 3, Fault: "drop-inval", Verbose: true},
		{Trials: 64, Seed: 1, Procs: []int{4, 6, 8}, Refs: 300, Blocks: 24, Fault: "skip-recall",
			Faults: "campaign", Verbose: true},
		{Trials: 2, Seed: 11, Procs: []int{8}, Refs: 100, Blocks: 12, Fault: "none", Wedge: true},
		{Trials: 5, Seed: 9, Procs: []int{4}, Refs: 50, Blocks: 8, Fault: "none", Parallel: 2},
	}
	for _, want := range lines {
		s := want.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %q:\n got %+v\nwant %+v", s, got, want)
		}
	}
}

// TestParsePinnedGrammar loads the exact line shape cmd/protostress
// prints (see its report function); a change there must update this test
// and the parser together.
func TestParsePinnedGrammar(t *testing.T) {
	got, err := Parse("protostress -trials 1 -seed 1186580211934150 -procs 4,6,8 -refs 300 -blocks 24 -fault none -faults campaign -v")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Line{Trials: 1, Seed: 1186580211934150, Procs: []int{4, 6, 8}, Refs: 300, Blocks: 24,
		Fault: "none", Faults: "campaign", Verbose: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

func TestParseDefaults(t *testing.T) {
	got, err := Parse("protostress")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Line{Trials: 64, Seed: 1, Procs: []int{4, 6, 8}, Refs: 300, Blocks: 24, Fault: "none"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"stress -trials 1",
		"protostress -trials",
		"protostress -trials x",
		"protostress -trials 0",
		"protostress -seed",
		"protostress -seed seven",
		"protostress -procs 4,,8",
		"protostress -fault explode",
		"protostress -frobnicate 3",
	}
	for _, s := range bad {
		if l, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, l)
		}
	}
}

// TestParseRejectsShards: protostress has no -shards flag, so a stored
// line carrying one fails as an unknown flag rather than replaying a run
// the line does not describe.
func TestParseRejectsShards(t *testing.T) {
	l, err := Parse("protostress -trials 1 -seed 7 -procs 4 -refs 300 -blocks 24 -fault none -check=false -shards 4 -v")
	if err == nil || !strings.Contains(err.Error(), `unknown flag "-shards"`) {
		t.Fatalf("Parse = %+v, %v; want an unknown -shards flag error", l, err)
	}
}
