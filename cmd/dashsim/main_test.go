package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command instead of the tests when DASHSIM_TEST_ARGS
// is set, so a test can run dashsim in a child process.
func TestMain(m *testing.M) {
	if args := os.Getenv("DASHSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{tool}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownPolicyExits2: an unknown -policy is a usage error — exit
// status 2, the policy named on stderr, nothing simulated.
func TestUnknownPolicyExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DASHSIM_TEST_ARGS=-app LU -procs 4 -sparse 8 -policy fifo")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err=%v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"fifo"`) || strings.Contains(msg, "panic:") {
		t.Errorf("stderr %q does not name the policy", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("simulated anyway: %q", stdout.String())
	}
}

// TestFailedRunKeepsOutputs: a run that fails after its outputs opened
// (here the wall-clock deadline, checked after the first 64 windows, so
// a 1ns deadline aborts every run at the same point) exits 1 with every
// output complete: the violation file holds the liveness record, every
// trace line parses, and the metrics file holds the run's block.
func TestFailedRunKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "t.metrics")
	checkPath := filepath.Join(dir, "v.jsonl")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DASHSIM_TEST_ARGS=-app LU -procs 8 -deadline 1ns -trace-out "+tracePath+
		" -metrics "+metricsPath+" -check-out "+checkPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err=%v, want exit status 1 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wall-clock deadline") {
		t.Fatalf("stderr does not report the deadline: %s", stderr.String())
	}

	checks, err := os.ReadFile(checkPath)
	if err != nil {
		t.Fatal(err)
	}
	var liveness int
	for _, line := range strings.Split(strings.TrimSpace(string(checks)), "\n") {
		var v struct {
			Check  string `json:"check"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("violation line %q: %v", line, err)
		}
		if v.Check == "liveness" && strings.Contains(v.Detail, "wall-clock deadline") {
			liveness++
		}
	}
	if liveness != 1 {
		t.Fatalf("violation file holds %d liveness records, want 1:\n%s", liveness, checks)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
	if len(trace) == 0 || !strings.HasSuffix(string(trace), "\n") {
		t.Fatalf("trace is empty or ends mid-line (%d bytes)", len(trace))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d %q: %v", i+1, line, err)
		}
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(metrics), "# run LU\n") || !strings.Contains(string(metrics), "msg.") {
		t.Fatalf("metrics file lacks the run's block:\n%s", metrics)
	}
}
