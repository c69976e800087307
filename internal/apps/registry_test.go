package apps

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNamesIsPaperOrder(t *testing.T) {
	want := []string{"LU", "DWF", "MP3D", "LocusRoute"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestAllIncludesExtensions(t *testing.T) {
	all := All()
	found := false
	for _, n := range all {
		if n == "FFT" {
			found = true
		}
	}
	if !found {
		t.Fatalf("All() = %v, want FFT included", all)
	}
	if len(all) != len(Names())+1 {
		t.Fatalf("All() = %v: want paper set plus FFT", all)
	}
}

func TestLookupRoundTrip(t *testing.T) {
	for _, name := range All() {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		w := f(4)
		if w == nil || w.Procs() != 4 {
			t.Fatalf("%s: factory built %v", name, w)
		}
		if w.Name != name {
			t.Errorf("%s: workload reports Name %q", name, w.Name)
		}
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	for _, alias := range []string{"lu", "locus", "locusroute", "fft", "mp3d"} {
		if _, err := Lookup(alias); err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
		}
	}
}

// TestResolve: the one naming rule. A registered name resolves in any case
// or by alias, "trace:<dir>" replays the directory at the requested
// processor count, and any other name — the retired "trace" app and a
// bare "trace:" among them — is an *UnknownAppError.
func TestResolve(t *testing.T) {
	for _, name := range []string{"LU", "lu", "locus", "LOCUSROUTE", "FFT"} {
		build, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if w, err := build(4); err != nil || w.Procs() != 4 {
			t.Fatalf("Resolve(%q) built %v, %v", name, w, err)
		}
	}

	dir := writeTraceDir(t, "RD 0x10\n", "LOCK 0x20\nWR 0x10 7\nUNLOCK 0x20\n")
	build, err := Resolve("trace:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := build(2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace:"+filepath.Base(dir) || len(w.Streams[0]) != 1 || len(w.Streams[1]) != 3 {
		t.Fatalf("trace workload %q has streams of %d and %d refs", w.Name, len(w.Streams[0]), len(w.Streams[1]))
	}
	if _, err := build(3); err == nil {
		t.Fatal("a two-core trace built at 3 procs")
	}

	for _, name := range []string{"Water", "trace", "trace:"} {
		_, err := Resolve(name)
		var unknown *UnknownAppError
		if !errors.As(err, &unknown) || unknown.Name != name {
			t.Fatalf("Resolve(%q) = %v, want *UnknownAppError", name, err)
		}
		if !strings.Contains(err.Error(), "trace:<dir>") {
			t.Errorf("Resolve(%q) error %q does not offer trace:<dir>", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	var unknown *UnknownAppError
	_, err := Lookup("Water")
	if !errors.As(err, &unknown) {
		t.Fatalf("Lookup(Water) = %v, want *UnknownAppError", err)
	}
	if len(unknown.Valid) == 0 {
		t.Fatal("UnknownAppError lists no valid names")
	}
	if ByName("Water", 4) != nil {
		t.Fatal("ByName(Water) != nil")
	}
}
