package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dircoh/internal/exp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sections parses an -only list the way main does.
func sections(t *testing.T, only string) []string {
	t.Helper()
	keys, err := exp.ParseSections(only)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// sweep renders an -only list the way main does, failing the test on a
// write error.
func sweep(t *testing.T, s *exp.Session, only string, procs, trials int, f exp.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Sweep(&buf, sections(t, only), procs, trials, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestSweepGoldenAnalytic locks the `sweep -only t1,2` output: Table 1's
// overhead arithmetic with the §5 savings example, and Figure 2's
// Monte-Carlo curves, as tables and plots, at a small trial count with the
// fixed seed the sweep always uses.
func TestSweepGoldenAnalytic(t *testing.T) {
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "t1,2", 8, 64, exp.Plain)
	checkGolden(t, "sweep_t1_2.golden", got)
}

// TestSweepGoldenMarkdown locks `sweep -md -only t1,2,t2`: the markdown
// layout of the same sections, under the report heading.
func TestSweepGoldenMarkdown(t *testing.T) {
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "t1,2,t2", 8, 64, exp.Markdown)
	checkGolden(t, "sweep_t1_2_t2.md.golden", got)
}

// TestSweepGoldenTable2 locks the Table 2 formatting at a small machine
// size (workload characterization only — no simulation).
func TestSweepGoldenTable2(t *testing.T) {
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "t2", 8, 1, exp.Plain)
	checkGolden(t, "sweep_t2.golden", got)
}

// TestSweepGoldenScale locks the analytic half of the beyond-64 section:
// Table 1 extended along the paper's growth axis and the per-scheme entry
// cost table at 64-4096 clusters. Pure arithmetic, no simulation.
func TestSweepGoldenScale(t *testing.T) {
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "scale", 8, 1, exp.Plain)
	checkGolden(t, "sweep_scale.golden", got)
}

// TestSweepGoldenScaleSim locks the simulated beyond-64 figure: the scale
// probe at 256, 1024 and 4096 clusters under the full roster. The largest
// cell simulates a 4096-cluster machine, so the test is skipped in short
// mode (it is the bulk of this package's non-short runtime).
func TestSweepGoldenScaleSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 256-4096 cluster machines")
	}
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "scale-sim", 8, 1, exp.Plain)
	checkGolden(t, "sweep_scale_sim.golden", got)
}

// TestSweepGoldenFigs3to10 locks `sweep -only 3-6,7-10` at the paper's 32
// processors: every simulated number of Figures 3-10, so a change that
// moves one fails here instead of passing unnoticed. About 1.3 s of CPU,
// so it runs in short mode too.
func TestSweepGoldenFigs3to10(t *testing.T) {
	got := sweep(t, exp.NewSession(exp.Observer{}, 0), "3-6,7-10", 32, 1, exp.Plain)
	checkGolden(t, "sweep_figs3_10.golden", got)
}

// TestSweepParallelismInvariant renders a simulation-backed section at
// several pool widths and requires byte-identical output.
func TestSweepParallelismInvariant(t *testing.T) {
	render := func(par int) []byte {
		return sweep(t, exp.NewSession(exp.Observer{}, par), "3-6", 8, 1, exp.Plain)
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty sweep output")
	}
	for _, par := range []int{2, 4} {
		if got := render(par); !bytes.Equal(got, want) {
			t.Fatalf("-parallel %d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				par, want, got)
		}
	}
}

func TestWant(t *testing.T) {
	cases := []struct {
		only, key string
		want      bool
	}{
		{"", "7-10", true},
		{"all", "13", true},
		{"t1,2", "t1", true},
		{"t1,2", "2", true},
		{"t1, 2", "2", true},
		{"t1,2", "t2", false},
		{"3-6", "7-10", false},
	}
	for _, c := range cases {
		if got := slices.Contains(sections(t, c.only), c.key); got != c.want {
			t.Errorf("-only %q selects %q = %v, want %v", c.only, c.key, got, c.want)
		}
	}
}

// TestMain runs the command instead of the tests when SWEEP_TEST_ARGS is
// set, so a test can run sweep in a child process and check its exit
// status and streams.
func TestMain(m *testing.M) {
	if args := os.Getenv("SWEEP_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs `sweep args` in a child process writing its standard
// output to stdout, and returns its exit status and standard error.
func runChild(t *testing.T, args string, stdout io.Writer) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SWEEP_TEST_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("%s: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUnknownOnlyExits2: an -only key that names no section — alone or
// next to a valid key — and a non-positive -procs or -trials are usage
// errors: exit status 2 with the offending flag or key named on stderr, no
// panic, and nothing rendered. A panic also exits 2, so the stderr checks
// carry the test.
func TestUnknownOnlyExits2(t *testing.T) {
	for _, c := range []struct {
		args string
		want []string // substrings stderr must carry
	}{
		{"-only zzz", []string{`"zzz"`, "7-10"}},
		{"-only t1,zzz", []string{`"zzz"`, "7-10"}},
		{"-only 7-10 -procs 0 -trials 1", []string{"-procs"}},
		{"-only 11-12 -procs -1", []string{"-procs"}},
		{"-only t1 -trials 0", []string{"-trials"}},
	} {
		var stdout bytes.Buffer
		code, msg := runChild(t, c.args, &stdout)
		if code != 2 {
			t.Fatalf("%s: exit status %d, want 2 (stderr: %s)", c.args, code, msg)
		}
		if strings.Contains(msg, "panic:") {
			t.Errorf("%s: panicked: %s", c.args, msg)
		}
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: stderr %q does not name %s", c.args, msg, w)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%s rendered output: %q", c.args, stdout.String())
		}
	}
}

// TestStdoutAndWriteErrors: standard output carries exactly the rendered
// sections — the wall-clock footer goes to stderr — and a failing standard
// output exits 1 with the write error on stderr.
func TestStdoutAndWriteErrors(t *testing.T) {
	for _, f := range []struct {
		flag   string
		format exp.Format
	}{{"", exp.Plain}, {"-md", exp.Markdown}} {
		args := "-only t1,scale -procs 8 " + f.flag
		var stdout bytes.Buffer
		code, msg := runChild(t, args, &stdout)
		if code != 0 {
			t.Fatalf("%s: exit status %d (stderr: %s)", args, code, msg)
		}
		want := sweep(t, exp.NewSession(exp.Observer{}, 0), "t1,scale", 8, 2000, f.format)
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: stdout is not the rendered sections alone:\n%s", args, stdout.String())
		}
		if !strings.Contains(msg, "sweep completed in") {
			t.Errorf("%s: stderr %q lacks the footer", args, msg)
		}
	}

	// Writes to a read-only descriptor fail with EBADF.
	path := filepath.Join(t.TempDir(), "out")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	code, msg := runChild(t, "-only t1", ro)
	if code != 1 || !strings.Contains(msg, "sweep: write") {
		t.Errorf("unwritable stdout: exit status %d, stderr %q; want 1 and the write error", code, msg)
	}
}
