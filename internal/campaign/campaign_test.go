package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dircoh/internal/apps"
	"dircoh/internal/config"
	"dircoh/internal/exp"
)

// waitState polls until the campaign reaches want (or any terminal
// state), failing the test on timeout.
func waitState(t *testing.T, m *Manager, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("campaign %s disappeared", id)
		}
		if st.State == want {
			return st
		}
		if st.State == StateDone || st.State == StateFailed {
			t.Fatalf("campaign %s reached %s (failures: %+v), want %s", id, st.State, st.Failures, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
	return Status{}
}

func stressSpec(trials int) Spec {
	return Spec{Kind: "stress", Name: "st", Stress: &StressSpec{
		Trials: trials, Seed: 21, Procs: []int{4}, Refs: 100, Blocks: 8,
	}}
}

func TestSpecValidate(t *testing.T) {
	s := stressSpec(4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stress.Refs != 100 || s.Stress.Blocks != 8 {
		t.Fatalf("validate clobbered explicit fields: %+v", s.Stress)
	}
	d := Spec{Kind: "stress", Stress: &StressSpec{}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Stress.Trials != 16 || d.Stress.Refs != 300 || d.Name != "stress" {
		t.Fatalf("defaults not applied: %+v name=%q", d.Stress, d.Name)
	}
	for _, bad := range []Spec{
		{Kind: "sweep"},
		{Kind: "nope", Sweep: &SweepSpec{}},
		{Kind: "sweep", Sweep: &SweepSpec{}, Stress: &StressSpec{}},
		{Kind: "sweep", Sweep: &SweepSpec{Only: "zzz"}},
		{Kind: "suite", Suite: &config.Suite{}},
		{Kind: "suite", Suite: &config.Suite{Runs: []config.RunSpec{{}}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	// Suite names default like config.Load.
	s2 := Spec{Kind: "suite", Suite: &config.Suite{Runs: []config.RunSpec{{App: "LU"}}}}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
	if s2.Suite.Runs[0].Name != "LU/full" {
		t.Fatalf("suite run name = %q", s2.Suite.Runs[0].Name)
	}
	// An unknown app is refused at submission with the typed error: every
	// retry of it would fail the same way.
	s3 := Spec{Kind: "suite", Suite: &config.Suite{Runs: []config.RunSpec{{App: "LU"}, {App: "NoSuchApp"}}}}
	var ue *apps.UnknownAppError
	if err := s3.Validate(); !errors.As(err, &ue) || ue.Name != "NoSuchApp" {
		t.Fatalf("Validate() = %v, want an *apps.UnknownAppError naming NoSuchApp", err)
	}
	// So is a machine that does not build.
	s4 := Spec{Kind: "suite", Suite: &config.Suite{Runs: []config.RunSpec{{App: "LU"},
		{App: "LU", Machine: config.MachineSpec{Scheme: config.SchemeSpec{Kind: "nope"}}}}}}
	if err := s4.Validate(); err == nil || !strings.Contains(err.Error(), `suite run 1: config: unknown scheme "nope"`) {
		t.Fatalf("Validate() = %v, want the unknown scheme of run 1", err)
	}
}

// TestSpecRejectsUnknownSection: a sweep spec whose -only list names an
// unknown section next to valid ones is rejected with the typed error,
// not silently narrowed to the valid keys.
func TestSpecRejectsUnknownSection(t *testing.T) {
	s := Spec{Kind: "sweep", Sweep: &SweepSpec{Only: "7-10,zzz"}}
	err := s.Validate()
	var ue *exp.UnknownSectionError
	if !errors.As(err, &ue) || ue.Key != "zzz" {
		t.Fatalf("Validate() = %v, want an *exp.UnknownSectionError naming zzz", err)
	}
}

// TestStressCampaignDeterministic: a volatile stress campaign completes,
// and a second identical submission produces the byte-identical result.
func TestStressCampaignDeterministic(t *testing.T) {
	m, err := Open(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var results [2]string
	for i := range results {
		c, err := m.Submit("alice", stressSpec(4))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, c.ID, StateDone)
		results[i], err = m.Result(c.ID)
		if err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("identical submissions diverged:\n%q\nvs\n%q", results[0], results[1])
	}
	if !strings.Contains(results[0], "trial   0 seed=") {
		t.Fatalf("result lacks trial lines:\n%s", results[0])
	}
}

// TestSweepCampaignMatchesSweep: a sweep campaign's assembled result is
// byte-identical to exp.Session.Sweep over the same sections, ablations
// included.
func TestSweepCampaignMatchesSweep(t *testing.T) {
	const only = "t1,scale,lock,barrier"
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := m.Submit("", Spec{Kind: "sweep", Sweep: &SweepSpec{Only: only, Procs: 8, Trials: 50}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateDone)
	got, err := m.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	keys, err := exp.ParseSections(only)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.NewSession(exp.Observer{}, 0).Sweep(&want, keys, 8, 50, exp.Plain); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Fatalf("campaign sweep diverged from exp.Sweep:\n%q\nvs\n%q", got, want.String())
	}
}

// TestSuiteCampaign: a two-run suite campaign assembles the comparison
// table with both rows in suite order.
func TestSuiteCampaign(t *testing.T) {
	m, err := Open(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	suite := &config.Suite{Runs: []config.RunSpec{
		{App: "LU", Machine: config.MachineSpec{Procs: 4}},
		{App: "LU", Machine: config.MachineSpec{Procs: 4, Scheme: config.SchemeSpec{Kind: "b"}}},
	}}
	c, err := m.Submit("", Spec{Kind: "suite", Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateDone)
	res, err := m.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(res, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + rule + 2 rows:\n%s", len(lines), res)
	}
	if !strings.Contains(lines[0], "inval+ack") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "LU/full") || !strings.Contains(lines[3], "LU/b") {
		t.Fatalf("rows out of order:\n%s", res)
	}
}

// TestQuarantineStuck: jobs aborted by the wall-clock watchdog are
// quarantined as "stuck" on the first attempt, never retried.
func TestQuarantineStuck(t *testing.T) {
	m, err := Open(Config{JobTimeout: time.Nanosecond, JobRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Big enough that the engine reaches its periodic deadline sample
	// (every 16k events) before finishing.
	spec := Spec{Kind: "stress", Stress: &StressSpec{
		Trials: 2, Seed: 21, Procs: []int{6}, Refs: 5000, Blocks: 8,
	}}
	c, err := m.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateFailed)
	st, _ := m.Get(c.ID)
	if len(st.Failures) != 2 {
		t.Fatalf("failures = %+v, want 2", st.Failures)
	}
	for _, f := range st.Failures {
		if f.Kind != "stuck" || f.Attempts != 1 {
			t.Fatalf("stuck job not quarantined on first attempt: %+v", f)
		}
	}
	if _, err := m.Result(c.ID); err == nil {
		t.Fatal("Result succeeded for a failed campaign")
	}
}

// TestRetryThenFail: ordinary job errors are retried JobRetries times
// before the typed failure record is written. A trace in a missing
// directory passes validation, which reads no file, and fails at run time.
func TestRetryThenFail(t *testing.T) {
	var calls atomic.Int32
	m, err := Open(Config{JobRetries: 2, JobRan: func(string, int) { calls.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	missing := "trace:" + filepath.Join(t.TempDir(), "missing")
	suite := &config.Suite{Runs: []config.RunSpec{{Name: "bad", App: missing}}}
	c, err := m.Submit("", Spec{Kind: "suite", Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateFailed)
	st, _ := m.Get(c.ID)
	if len(st.Failures) != 1 || st.Failures[0].Kind != "error" || st.Failures[0].Attempts != 3 {
		t.Fatalf("failures = %+v, want one error after 3 attempts", st.Failures)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("job executed %d times, want 3", got)
	}
}

// TestBackpressure: tenant quotas and queue depth reject with typed
// *BusyError carrying a retry hint; a drained manager rejects with
// ErrDraining.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	m, err := Open(Config{
		MaxActive: 1, QueueDepth: 1, MaxTenants: 2, TenantJobs: 8,
		JobRan: func(string, int) { started <- struct{}{}; <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(release); m.Close() }()

	// Tenant job quota.
	if _, err := m.Submit("alice", stressSpec(9)); err == nil {
		t.Fatal("submission over TenantJobs accepted")
	} else {
		var be *BusyError
		if !errors.As(err, &be) || be.RetryAfter <= 0 {
			t.Fatalf("want *BusyError with retry hint, got %v", err)
		}
	}

	// Hold one campaign active, one queued.
	if _, err := m.Submit("alice", stressSpec(2)); err != nil {
		t.Fatal(err)
	}
	<-started // first job claimed: campaign is active
	if _, err := m.Submit("bob", stressSpec(2)); err != nil {
		t.Fatal(err)
	}
	// Queue is now full.
	var be *BusyError
	if _, err := m.Submit("carol", stressSpec(2)); !errors.As(err, &be) {
		t.Fatalf("submission over QueueDepth = %v, want *BusyError", err)
	}

	go m.Drain(testContext(t))
	for !m.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit("alice", stressSpec(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining = %v, want ErrDraining", err)
	}
}

// TestMaxTenants: a new tenant beyond the bound is rejected while known
// tenants keep submitting.
func TestMaxTenants(t *testing.T) {
	release := make(chan struct{})
	m, err := Open(Config{
		MaxActive: 1, QueueDepth: 8, MaxTenants: 2, TenantJobs: 100,
		JobRan: func(string, int) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(release); m.Close() }()
	if _, err := m.Submit("alice", stressSpec(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("bob", stressSpec(2)); err != nil {
		t.Fatal(err)
	}
	var be *BusyError
	if _, err := m.Submit("carol", stressSpec(2)); !errors.As(err, &be) {
		t.Fatalf("third tenant = %v, want *BusyError", err)
	}
	if _, err := m.Submit("alice", stressSpec(2)); err != nil {
		t.Fatalf("known tenant rejected: %v", err)
	}
}

// testContext returns a context bounded well under the test deadline.
func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestJournalTornTail: a SIGKILL can cut the journal mid-line; the torn
// tail is dropped and every whole record survives.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jr, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := jr.append(record{Job: i, Attempts: 1, Out: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	jr.close()
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":3,"attempts":1,"out":"trunca`)
	f.Close()

	outcomes, err := loadOutcomes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("recovered %d records, want 3 (torn tail dropped)", len(outcomes))
	}
	for i := 0; i < 3; i++ {
		if outcomes[i].Out != "ok" {
			t.Fatalf("record %d = %+v", i, outcomes[i])
		}
	}
}

// TestJournalCorruptTail: replay stops at the first undecodable record;
// records before it are kept, records after it are discarded (they will
// simply re-run).
func TestJournalCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	lines := `{"job":0,"attempts":1,"out":"a"}
{"job":1,"attempts":1,"out":"b"}
garbage not json
{"job":2,"attempts":1,"out":"c"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	outcomes, err := loadOutcomes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 || outcomes[0].Out != "a" || outcomes[1].Out != "b" {
		t.Fatalf("recovered %+v, want jobs 0 and 1 only", outcomes)
	}
}

// TestCheckpointCompaction: after CheckpointEvery appends the journal is
// folded into checkpoint.json and truncated; recovery sees every record.
func TestCheckpointCompaction(t *testing.T) {
	root := t.TempDir()
	m, err := Open(Config{Root: root, CheckpointEvery: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := m.Submit("", stressSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateDone)
	dir := filepath.Join(root, c.ID)
	var cp checkpoint
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Records) < 2 {
		t.Fatalf("checkpoint has %d records", len(cp.Records))
	}
	outcomes, err := loadOutcomes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 5 {
		t.Fatalf("checkpoint+journal recover %d records, want 5", len(outcomes))
	}
}

// TestCrashResume reconstructs the on-disk state a SIGKILL leaves — spec,
// a journal prefix, a torn tail, no terminal file — and verifies a fresh
// manager re-executes only the missing jobs yet assembles the
// byte-identical result.
func TestCrashResume(t *testing.T) {
	// Reference: the full campaign, run clean.
	rootA := t.TempDir()
	mA, err := Open(Config{Root: rootA, NoSync: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	cA := submitOK(t, mA, "alice", stressSpec(6))
	waitState(t, mA, cA, StateDone)
	want, err := mA.Result(cA)
	if err != nil {
		t.Fatal(err)
	}
	mA.Close()

	// Crashed state: copy spec + first 3 journal records + torn tail.
	rootB := t.TempDir()
	dirB := filepath.Join(rootB, cA)
	if err := os.MkdirAll(dirB, 0o755); err != nil {
		t.Fatal(err)
	}
	specData, err := os.ReadFile(filepath.Join(rootA, cA, specFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, specFile), specData, 0o644); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(filepath.Join(rootA, cA, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(strings.TrimRight(string(jdata), "\n"), "\n")
	if len(jlines) < 6 {
		t.Fatalf("reference journal has %d lines, want 6", len(jlines))
	}
	prefix := strings.Join(jlines[:3], "") + `{"job":99,"attempts":1,"out":"torn`
	if err := os.WriteFile(filepath.Join(dirB, journalFile), []byte(prefix), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: only the 3 missing jobs run.
	var reran atomic.Int32
	mB, err := Open(Config{Root: rootB, NoSync: true, Parallel: 2,
		JobRan: func(string, int) { reran.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	waitState(t, mB, cA, StateDone)
	got, err := mB.Result(cA)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed result diverged:\n%q\nvs\n%q", got, want)
	}
	if n := reran.Load(); n != 3 {
		t.Fatalf("resume executed %d jobs, want exactly the 3 missing", n)
	}
	// And the result file is on disk, atomic-written.
	onDisk, err := os.ReadFile(filepath.Join(dirB, resultFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != want {
		t.Fatal("result.txt diverges from Result()")
	}
}

// TestDrainResume: Drain finishes in-flight jobs, checkpoints, parks the
// campaign paused; a fresh manager over the same root completes exactly
// the remaining jobs and the result matches a never-interrupted run.
func TestDrainResume(t *testing.T) {
	root := t.TempDir()
	started := make(chan int, 64)
	release := make(chan struct{})
	m1, err := Open(Config{Root: root, NoSync: true, Parallel: 2,
		JobRan: func(_ string, job int) { started <- job; <-release }})
	if err != nil {
		t.Fatal(err)
	}
	c, err := m1.Submit("alice", stressSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	drained := make(chan error, 1)
	go func() { drained <- m1.Drain(testContext(t)) }()
	for !m1.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, _ := m1.Get(c.ID)
	if st.State != StatePaused {
		t.Fatalf("after drain state = %s, want paused", st.State)
	}
	if st.Done == 0 || st.Done >= st.Jobs {
		t.Fatalf("after drain done = %d of %d, want partial", st.Done, st.Jobs)
	}
	doneBeforeResume := st.Done

	var reran atomic.Int32
	m2, err := Open(Config{Root: root, NoSync: true, Parallel: 2,
		JobRan: func(string, int) { reran.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitState(t, m2, c.ID, StateDone)
	got, err := m2.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if int(reran.Load()) != 6-doneBeforeResume {
		t.Fatalf("resume executed %d jobs, want %d", reran.Load(), 6-doneBeforeResume)
	}

	// Reference result from an uninterrupted volatile run.
	mR, err := Open(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mR.Close()
	cR := submitOK(t, mR, "alice", stressSpec(6))
	waitState(t, mR, cR, StateDone)
	want, err := mR.Result(cR)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("drained+resumed result diverged from clean run:\n%q\nvs\n%q", got, want)
	}
}

// TestSubscribe: history replays every job event plus the terminal
// record; a finished campaign returns no live channel.
func TestSubscribe(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := m.Submit("", stressSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, c.ID, StateDone)
	history, ch, err := m.Subscribe(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ch != nil {
		t.Fatal("finished campaign returned a live channel")
	}
	if len(history) != 4 {
		t.Fatalf("history has %d events, want 3 jobs + done:\n%s", len(history), strings.Join(history, "\n"))
	}
	var last struct {
		Done  bool   `json:"done"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(history[3]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Done || last.State != StateDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if _, _, err := m.Subscribe("nope"); err == nil {
		t.Fatal("unknown campaign subscribed")
	}
}

func submitOK(t *testing.T, m *Manager, tenant string, spec Spec) string {
	t.Helper()
	c, err := m.Submit(tenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c.ID
}
