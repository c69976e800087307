package stress

import (
	"errors"
	"strings"
	"testing"

	"dircoh/internal/machine"
)

func smallOpts() Options {
	return Options{Trials: 6, Seed: 21, Procs: []int{4, 6}, Refs: 150, Blocks: 16, Check: true}
}

// TestCleanCampaign: an unmutated protocol must survive the stress grid
// with zero findings.
func TestCleanCampaign(t *testing.T) {
	trials, caught := RunTrials(smallOpts())
	if caught {
		for _, tr := range trials {
			if tr.Failed() {
				t.Errorf("trial %d (%s): err=%v violations=%v coherence=%v",
					tr.ID, tr.Desc, tr.Err, tr.Caught, tr.CohErr)
			}
		}
		t.Fatal("clean protocol produced findings")
	}
}

// TestFaultsCaught: each injected mutation must be detected by at least
// one trial — the harness's self-test obligation.
func TestFaultsCaught(t *testing.T) {
	for _, f := range []machine.Fault{machine.FaultDropInval, machine.FaultSkipRecallInval} {
		o := smallOpts()
		o.Trials = 16
		o.Fault = f
		_, caught := RunTrials(o)
		if !caught {
			t.Errorf("fault %s went undetected in %d trials", f, o.Trials)
		}
	}
}

// TestReplayDeterminism: rerunning a single trial with its printed seed
// reproduces the identical configuration and execution time.
func TestReplayDeterminism(t *testing.T) {
	o := smallOpts()
	first := RunTrial(3, SeedFor(o.Seed, 3, o.Trials), o)
	replay := RunTrial(0, first.Seed, o)
	if replay.Desc != first.Desc || replay.ExecTime != first.ExecTime {
		t.Fatalf("replay diverged: %q exec=%d vs %q exec=%d",
			first.Desc, first.ExecTime, replay.Desc, replay.ExecTime)
	}
}

// TestFaultCampaignClean: under randomized per-trial network fault mixes
// the recovery machinery must still complete every trial with zero
// invariant violations.
func TestFaultCampaignClean(t *testing.T) {
	o := smallOpts()
	o.Trials = 8
	o.Faults = "campaign"
	trials, caught := RunTrials(o)
	if caught {
		for _, tr := range trials {
			if tr.Failed() {
				t.Errorf("trial %d (%s): err=%v violations=%v coherence=%v",
					tr.ID, tr.Desc, tr.Err, tr.Caught, tr.CohErr)
			}
		}
		t.Fatal("fault campaign produced findings")
	}
	for _, tr := range trials {
		if tr.Desc == "" || !strings.Contains(tr.Desc, "faults=") {
			t.Fatalf("trial %d desc lacks fault spec: %q", tr.ID, tr.Desc)
		}
	}
}

// TestFaultCampaignReplay: a fault-campaign trial replayed by its seed
// draws the identical fault mix and execution time.
func TestFaultCampaignReplay(t *testing.T) {
	o := smallOpts()
	o.Trials = 4
	o.Faults = "campaign"
	first := RunTrial(2, SeedFor(o.Seed, 2, o.Trials), o)
	o.Trials = 1
	replay := RunTrial(0, first.Seed, o)
	if replay.Desc != first.Desc || replay.ExecTime != first.ExecTime {
		t.Fatalf("replay diverged: %q exec=%d vs %q exec=%d",
			first.Desc, first.ExecTime, replay.Desc, replay.ExecTime)
	}
}

// TestFaultCampaignRegressions replays the exact campaign seeds that once
// produced invariant violations — stale owner reads overtaken by a
// sibling's re-acquisition, write fan-out invalidations outliving a
// recall, and SharingWBs stale after an ownership bounce through a third
// cluster. Each must now run clean.
func TestFaultCampaignRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size campaign replays")
	}
	seeds := []int64{
		-4627371582388691390, -8194201985949301919, -1806040232980855993,
		-5937789379458223177, 4026922237021176607, 7232921342214546856,
		8478203652574459302, -4260178708525722724, 6942937328743600961,
		-2631691874271825767,
	}
	o := Options{Trials: 1, Seed: 0, Procs: []int{4, 6, 8}, Refs: 300,
		Blocks: 24, Faults: "campaign", Check: true}
	for _, seed := range seeds {
		tr := RunTrial(0, seed, o)
		if tr.Failed() {
			t.Errorf("seed %d (%s): err=%v violations=%v coherence=%v",
				seed, tr.Desc, tr.Err, tr.Caught, tr.CohErr)
		}
	}
}

// TestWedgeTripsWatchdog: with every message dropped and the retry budget
// cut, every trial must abort via *machine.StuckError carrying a
// diagnostic dump.
func TestWedgeTripsWatchdog(t *testing.T) {
	o := smallOpts()
	o.Trials = 3
	o.Wedge = true
	trials, _ := RunTrials(o)
	for _, tr := range trials {
		if !tr.Stuck() {
			t.Fatalf("trial %d not stuck: err=%v", tr.ID, tr.Err)
		}
		var se *machine.StuckError
		errors.As(tr.Err, &se)
		if !strings.Contains(se.Dump, "refs remaining") || !strings.Contains(se.Dump, "msg ") {
			t.Fatalf("trial %d dump lacks proc/envelope detail:\n%s", tr.ID, se.Dump)
		}
	}
}
