package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// ts is the shared session the in-package tests drive: default
// parallelism, the default machine core width, no instrumentation. Tests
// that exercise a specific pool width or observer build their own Session.
var ts = NewSession(Observer{}, 0, 0)

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
