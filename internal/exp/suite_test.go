package exp

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"dircoh/internal/apps"
	"dircoh/internal/config"
	"dircoh/internal/machine"
	"dircoh/internal/stats"
)

// TestExecuteSpecTrace: a suite entry naming "trace:<dir>" replays the
// example ping-pong trace end to end, and replaying it on fewer
// processors than it has cores fails at build instead of dropping a core.
func TestExecuteSpecTrace(t *testing.T) {
	const app = "trace:../../examples/traces/pingpong"
	run := config.RunSpec{Name: "pingpong", App: app, Machine: config.MachineSpec{Procs: 2}}
	r, err := ts.ExecuteSpec(run)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecTime == 0 || r.Msgs[stats.Invalidation] == 0 {
		t.Fatalf("ping-pong ran %d cycles with %d invalidations, want both nonzero", r.ExecTime, r.Msgs[stats.Invalidation])
	}

	run.Machine.Procs = 1
	_, err = ts.ExecuteSpec(run)
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "build" {
		t.Fatalf("two-core trace at 1 proc: err = %v, want a build *RunError", err)
	}
}

// TestTraceReplayParity: each paper application recorded as a trace and
// replayed through "trace:<dir>" gives the Result its generated run gives,
// on Dir3CV2 at 8 processors.
func TestTraceReplayParity(t *testing.T) {
	const procs = 8
	for _, app := range apps.Names() {
		w := Workload(app, procs)
		dir := filepath.Join(t.TempDir(), app)
		if _, err := apps.WriteTraceDir(dir, w); err != nil {
			t.Fatal(err)
		}
		build, err := apps.Resolve("trace:" + dir)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := build(procs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(machine.CoarseVec2)
		cfg.Procs = procs
		want, err := ts.RunConfigured(app, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ts.RunConfigured(replay.Name, replay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed Result differs from the generated run's\n got: %+v\nwant: %+v", app, got, want)
		}
	}
}
