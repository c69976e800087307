package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
