package exp

import (
	"strings"
	"testing"

	"dircoh/internal/sim"
)

func TestOccupancyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("four 32-proc runs")
	}
	runs, tb := ts.OccupancyStudy(Procs)
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	const memBlocks = 32 * (16 << 20) / 16
	for _, r := range runs {
		if r.Result.DirPeak == 0 {
			t.Errorf("%s: zero peak directory occupancy", r.Label)
		}
		// §4.2: the live fraction of a provisioned full directory is
		// tiny (the paper bounds it at ~1.5%; our scaled data sets sit
		// far below even that).
		if frac := float64(r.Result.DirPeak) / float64(memBlocks); frac > 0.015 {
			t.Errorf("%s: live fraction %.4f exceeds the paper's 1.5%% bound", r.Label, frac)
		}
	}
	if !strings.Contains(tb.String(), "live fraction") {
		t.Fatal("table malformed")
	}
}

// TestFFTControlWorkload: the FFT extension's strictly pairwise sharing
// never overflows even one pointer, so every scheme matches the full
// vector exactly — a control validating that the scheme differences seen
// elsewhere come from sharing breadth, not simulator artifacts.
func TestFFTControlWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("four 32-proc runs")
	}
	runs, _ := ts.SchemeComparison("FFT", Procs)
	full := runs[0].Result
	for _, r := range runs[1:] {
		if r.Result.Msgs != full.Msgs {
			t.Errorf("%s: messages differ from full vector on pairwise workload: %v vs %v",
				r.Label, r.Result.Msgs, full.Msgs)
		}
	}
}

// TestBlockSizeTradeoff checks §3.1's reasoning: doubling the block size
// halves directory overhead, but coherence traffic does not shrink
// proportionally — MP3D's invalidations actually grow (false sharing of
// neighbouring cells), even as misses fall with spatial locality.
func TestBlockSizeTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("three 32-proc runs")
	}
	runs, _ := ts.BlockSizeStudy("MP3D", Procs, []int{16, 64})
	small, big := runs[0].Result, runs[1].Result
	if big.Cache.Misses >= small.Cache.Misses {
		t.Errorf("bigger blocks should cut misses: %d vs %d", big.Cache.Misses, small.Cache.Misses)
	}
	if big.Msgs.InvalAck() < small.Msgs.InvalAck() {
		t.Errorf("false sharing should keep invalidations up: %d vs %d",
			big.Msgs.InvalAck(), small.Msgs.InvalAck())
	}
	// Invalidations per miss rise sharply — the false-sharing signature.
	smallRate := float64(small.Msgs.InvalAck()) / float64(small.Cache.Misses)
	bigRate := float64(big.Msgs.InvalAck()) / float64(big.Cache.Misses)
	if bigRate <= smallRate {
		t.Errorf("invals per miss should rise with block size: %.3f vs %.3f", bigRate, smallRate)
	}
}

func TestNetworkContentionAmplifiesBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("six 32-proc runs")
	}
	runs, _ := ts.NetworkContention("LocusRoute", Procs, []sim.Time{0, 8})
	byLabel := map[string]Run{}
	for _, r := range runs {
		byLabel[r.Label] = r
	}
	fullFree := byLabel["Full Vector port=0"].Result
	bFree := byLabel["Broadcast port=0"].Result
	full8 := byLabel["Full Vector port=8"].Result
	cv8 := byLabel["Coarse Vector port=8"].Result
	b8 := byLabel["Broadcast port=8"].Result

	// Without contention the schemes tie in execution time.
	if ratio := float64(bFree.ExecTime) / float64(fullFree.ExecTime); ratio > 1.05 {
		t.Fatalf("contention-free broadcast exec ratio %.3f, want ~1", ratio)
	}
	// With contention, broadcast pays for its extraneous messages...
	if ratio := float64(b8.ExecTime) / float64(full8.ExecTime); ratio < 1.2 {
		t.Errorf("contended broadcast exec ratio %.3f, want >= 1.2", ratio)
	}
	// ...while the coarse vector stays near the full vector.
	if ratio := float64(cv8.ExecTime) / float64(full8.ExecTime); ratio > 1.05 {
		t.Errorf("contended coarse vector exec ratio %.3f, want <= 1.05", ratio)
	}
	// And the broadcast run stalls the network far more.
	if b8.Net.Stalls < 3*cv8.Net.Stalls {
		t.Errorf("broadcast stalls %d should dwarf CV's %d", b8.Net.Stalls, cv8.Net.Stalls)
	}
}

// TestBarrierStudy: under port contention the combining tree beats the
// central barrier, whose home cluster absorbs every arrival.
func TestBarrierStudy(t *testing.T) {
	runs, tb := ts.BarrierStudy(32, 6, []sim.Time{0, 8})
	byLabel := map[string]Run{}
	for _, r := range runs {
		byLabel[r.Label] = r
	}
	c8 := byLabel["central port=8"].Result
	t8 := byLabel["tree port=8"].Result
	if t8.ExecTime >= c8.ExecTime {
		t.Errorf("tree barrier exec %d should beat central's %d under contention",
			t8.ExecTime, c8.ExecTime)
	}
	if t8.Net.Stalls >= c8.Net.Stalls {
		t.Errorf("tree stalls %d should be below central's %d", t8.Net.Stalls, c8.Net.Stalls)
	}
	if !strings.Contains(tb.String(), "tree") {
		t.Fatal("table malformed")
	}
}
