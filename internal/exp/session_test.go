package exp

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// ts is the shared session the in-package tests drive: default
// parallelism, no instrumentation. Tests that exercise a specific pool
// width or observer build their own Session.
var ts = NewSession(Observer{}, 0)

// TestParseSections: the -only parser returns the selected keys in
// canonical order, and rejects an unknown key — alone or next to valid
// ones — with a typed error naming it and listing the valid keys.
func TestParseSections(t *testing.T) {
	for only, want := range map[string][]string{
		"":            SweepSectionKeys,
		"all":         SweepSectionKeys,
		"7-10,t1":     {"t1", "7-10"},
		" 2 , 2,,13 ": {"2", "13"},
	} {
		got, err := ParseSections(only)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSections(%q) = %v, %v; want %v", only, got, err, want)
		}
	}
	for _, only := range []string{"zzz", "t1,zzz", "7"} {
		_, err := ParseSections(only)
		var ue *UnknownSectionError
		if !errors.As(err, &ue) {
			t.Fatalf("ParseSections(%q) error = %v, want *UnknownSectionError", only, err)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+ue.Key+`"`) || !strings.Contains(msg, "scale-sim") {
			t.Errorf("ParseSections(%q): %q does not name the key and the valid ones", only, msg)
		}
	}
}

// TestSectionTable checks the evaluation's section table without running
// a simulation: keys are unique and each parses as itself, every block has
// a title and a renderer, and the first ten keys keep the order saved
// sweep campaigns replay their jobs in.
func TestSectionTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, sec := range sections {
		if seen[sec.key] {
			t.Errorf("duplicate section key %q", sec.key)
		}
		seen[sec.key] = true
		if got, err := ParseSections(sec.key); err != nil || !slices.Equal(got, []string{sec.key}) {
			t.Errorf("ParseSections(%q) = %v, %v", sec.key, got, err)
		}
		if len(sec.blocks) == 0 {
			t.Errorf("section %q has no blocks", sec.key)
		}
		for _, b := range sec.blocks {
			if strings.TrimSpace(b.title) == "" || b.render == nil {
				t.Errorf("section %q has a block without a title or renderer: %+v", sec.key, b)
			}
		}
	}
	first := []string{"2", "t1", "t2", "3-6", "7-10", "11-12", "13", "14", "scale", "scale-sim"}
	if got := SweepSectionKeys[:len(first)]; !slices.Equal(got, first) {
		t.Errorf("first section keys = %v, want %v", got, first)
	}
}

// failAfter errors every write past a byte budget — the disk-full case.
type failAfter struct {
	n int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSweepPropagatesWriteError: in either format, a sweep whose writer
// fails returns the write error, and an unknown key is a typed error.
func TestSweepPropagatesWriteError(t *testing.T) {
	for _, f := range []Format{Plain, Markdown} {
		err := ts.Sweep(&failAfter{n: 64}, []string{"t1", "scale"}, 8, 16, f)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("format %d: Sweep error = %v, want %v", f, err, errDiskFull)
		}
	}
	var ue *UnknownSectionError
	if err := ts.Sweep(&strings.Builder{}, []string{"zzz"}, 8, 16, Plain); !errors.As(err, &ue) {
		t.Errorf("Sweep of an unknown key: error = %v, want *UnknownSectionError", err)
	}
}
