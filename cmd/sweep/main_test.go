package main

import (
	"bytes"
	"errors"
	"flag"
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
// overhead arithmetic and Figure 2's Monte-Carlo curves at a small trial
// count with the fixed seed the sweep always uses.
func TestSweepGoldenAnalytic(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, sections(t, "t1,2"), 8, 64)
	checkGolden(t, "sweep_t1_2.golden", buf.Bytes())
}

// TestSweepGoldenTable2 locks the Table 2 formatting at a small machine
// size (workload characterization only — no simulation).
func TestSweepGoldenTable2(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, sections(t, "t2"), 8, 1)
	checkGolden(t, "sweep_t2.golden", buf.Bytes())
}

// TestSweepGoldenScale locks the analytic half of the beyond-64 section:
// Table 1 extended along the paper's growth axis and the per-scheme entry
// cost table at 64-4096 clusters. Pure arithmetic, no simulation.
func TestSweepGoldenScale(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, sections(t, "scale"), 8, 1)
	checkGolden(t, "sweep_scale.golden", buf.Bytes())
}

// TestSweepGoldenScaleSim locks the simulated beyond-64 figure: the scale
// probe at 256, 1024 and 4096 clusters under the full roster. The largest
// cell simulates a 4096-cluster machine, so the test is skipped in short
// mode (it is the bulk of this package's non-short runtime).
func TestSweepGoldenScaleSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 256-4096 cluster machines")
	}
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, sections(t, "scale-sim"), 8, 1)
	checkGolden(t, "sweep_scale_sim.golden", buf.Bytes())
}

// TestScaleSmokeWidths is the bounded large-geometry smoke: one
// 1024-cluster scale cell (the adaptive two-level scheme) run at machine
// core widths 1 and 4 must render byte-identically — the
// width-independence guarantee exercised at the scale the compact
// encodings exist for. Bounded to a single cell so CI stays fast.
func TestScaleSmokeWidths(t *testing.T) {
	saved := exp.ScaleSchemes
	exp.ScaleSchemes = exp.ScaleSchemes[2:3] // Two Level only
	defer func() { exp.ScaleSchemes = saved }()
	render := func(shards int) []byte {
		var buf bytes.Buffer
		_, tb := exp.NewSession(exp.Observer{}, 0, shards).ScaleStudy([]int{1024}, 2)
		buf.WriteString(tb.String())
		return buf.Bytes()
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty scale output")
	}
	if got := render(4); !bytes.Equal(got, want) {
		t.Fatalf("-shards 4 scale cell differs from -shards 1:\n--- shards 1 ---\n%s\n--- shards 4 ---\n%s", want, got)
	}
}

// TestSweepParallelismInvariant renders a simulation-backed section at
// several pool widths and requires byte-identical output.
func TestSweepParallelismInvariant(t *testing.T) {
	render := func(par int) []byte {
		var buf bytes.Buffer
		runSweep(exp.NewSession(exp.Observer{}, par, 0), &buf, sections(t, "3-6"), 8, 1)
		return buf.Bytes()
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

// TestSweepShardsInvariant renders a simulation-backed section at several
// machine core widths and requires byte-identical output — the end-to-end
// form of the core's equivalence guarantee. Width 0 (the library default)
// and every width >= 1 share one (time, origin cluster, sequence) event
// order.
func TestSweepShardsInvariant(t *testing.T) {
	render := func(shards int) []byte {
		var buf bytes.Buffer
		runSweep(exp.NewSession(exp.Observer{}, 0, shards), &buf, sections(t, "7-10"), 8, 1)
		return buf.Bytes()
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty sweep output")
	}
	for _, shards := range []int{0, 2, 4} {
		if got := render(shards); !bytes.Equal(got, want) {
			t.Fatalf("-shards %d output differs from -shards 1:\n--- shards 1 ---\n%s\n--- shards %d ---\n%s",
				shards, want, shards, got)
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

// TestUnknownOnlyExits2: an -only key that names no section is a usage
// error — exit status 2 with the bad key and the valid ones on stderr —
// even next to a valid key, and nothing is rendered.
func TestUnknownOnlyExits2(t *testing.T) {
	if only := os.Getenv("SWEEP_TEST_ONLY"); only != "" {
		os.Args = []string{"sweep", "-only", only}
		main()
		return
	}
	for _, only := range []string{"zzz", "t1,zzz"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownOnlyExits2$")
		cmd.Env = append(os.Environ(), "SWEEP_TEST_ONLY="+only)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-only %s: err=%v, want exit status 2 (stderr: %s)", only, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, `"zzz"`) || !strings.Contains(msg, "7-10") {
			t.Errorf("-only %s: stderr %q does not name the bad key and the valid ones", only, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-only %s rendered output: %q", only, stdout.String())
		}
	}
}
