package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/machine"
)

// TestMain runs a minimal observed command instead of the tests when
// CLI_TEST_ARGS is set, so a test can watch a session's exit status in a
// child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("CLI_TEST_ARGS"); args != "" {
		o := NewObs("clitest")
		flag.CommandLine.Parse(strings.Fields(args))
		Check("clitest", o.Start())
		o.Stop()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeStreams runs one small simulation through a session whose three
// JSONL streams name the given paths, adds one violation record, and
// returns the bytes of the file the last path names.
func writeStreams(t *testing.T, trace, spans, checks string) []byte {
	t.Helper()
	o := &Obs{tool: "clitest", tracePath: trace, spanPath: spans, checkPath: checks}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{
		Procs:           4,
		ProcsPerCluster: 1,
		Block:           16,
		Cache:           cache.Config{L1Size: 256, L1Assoc: 1, L2Size: 1024, L2Assoc: 2, Block: 16},
		Scheme:          machine.CoarseVec2,
		Timing:          machine.DefaultTiming(),
	}
	if _, err := o.Session(1).RunConfigured("LU/t", apps.LU(apps.LUConfig{Procs: 4, N: 16}), cfg); err != nil {
		t.Fatal(err)
	}
	v := check.Violation{Rule: check.RuleAck, Block: 3, Node: 1, Cycle: 9, Detail: "test record"}
	if err := o.CheckSink("LU/t").WriteViolation(v); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	out, err := os.ReadFile(checks)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamsShareFileHoweverSpelled: -trace-out, -span-out and -check-out
// naming one file as t.jsonl, ./t.jsonl and its absolute path write the
// same bytes as when all three spell it t.jsonl.
func TestStreamsShareFileHoweverSpelled(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	want := writeStreams(t, "t.jsonl", "t.jsonl", "t.jsonl")
	for _, kind := range []string{`"ev":`, `"span":`, `"check":`} {
		if !bytes.Contains(want, []byte(kind)) {
			t.Fatalf("one-spelling file holds no %s line", kind)
		}
	}
	got := writeStreams(t, "t.jsonl", "./t.jsonl", filepath.Join(dir, "t.jsonl"))
	if !bytes.Equal(got, want) {
		t.Fatalf("three spellings wrote %d bytes, one spelling %d; the files differ", len(got), len(want))
	}
}

// TestOutputsTable: the writer table keys a file by what it is, not how
// its path is spelled.
func TestOutputsTable(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "real"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("real", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(a, b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		o       *Obs
		files   int    // entries in the table
		sharers int    // streams writing the first entry
		err     string // substring of the usage error, "" for none
	}{
		{"stdout streams share", &Obs{tracePath: "-", spanPath: "-"}, 1, 2, ""},
		{"-metrics - refused", &Obs{tracePath: "-", metricsPath: "-"}, 0, 0, "-metrics -: only"},
		{"-cpuprofile - refused", &Obs{cpuPath: "-"}, 0, 0, "-cpuprofile -: only"},
		{"-memprofile - refused", &Obs{memPath: "-"}, 0, 0, "-memprofile -: only"},
		{"symlinked directory", &Obs{spanPath: filepath.Join(dir, "link", "x"), checkPath: filepath.Join(dir, "real", "x")}, 1, 2, ""},
		{"hard link", &Obs{tracePath: a, spanPath: b}, 1, 2, ""},
		{"profile on a stream", &Obs{tracePath: a, cpuPath: b}, 0, 0, "-trace-out and -cpuprofile name one file"},
		{"metrics on a stream", &Obs{spanPath: a, metricsPath: a}, 0, 0, "-span-out and -metrics name one file"},
	} {
		files, err := tc.o.outputs()
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(files) != tc.files || len(files[0].sinks) != tc.sharers {
			t.Errorf("%s: %d files, first written by %d streams; want %d and %d",
				tc.name, len(files), len(files[0].sinks), tc.files, tc.sharers)
		}
	}
}

// TestMetricsOnStreamFileExits2: -metrics naming a JSONL stream's file,
// spelled differently, is a usage error — exit status 2, both flags named
// on stderr, and nothing written.
func TestMetricsOnStreamFileExits2(t *testing.T) {
	dir := t.TempDir()
	old := []byte("kept\n")
	if err := os.WriteFile(filepath.Join(dir, "m.out"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CLI_TEST_ARGS=-span-out m.out -metrics ./m.out -cpuprofile cpu.out")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err=%v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-span-out and -metrics") {
		t.Errorf("stderr %q does not name the two flags", msg)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "m.out")); err != nil || !bytes.Equal(got, old) {
		t.Errorf("m.out = %q, %v; want it untouched", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cpu.out")); !os.IsNotExist(err) {
		t.Errorf("the CPU profile was opened before the usage error (stat: %v)", err)
	}
}

// TestMetricsToStdoutExits2: "-" means standard output only for the JSONL
// streams, so -metrics - is a usage error — exit status 2, the flag named
// on stderr, and no file named "-" created.
func TestMetricsToStdoutExits2(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CLI_TEST_ARGS=-metrics -")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err=%v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-metrics") {
		t.Errorf("stderr %q does not name the flag", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Errorf("a file named - was created (stat: %v)", err)
	}
}
