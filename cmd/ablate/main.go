// Command ablate runs the ablation studies that probe the paper's fixed
// design choices: the coarse vector's region size, the pointer budget of
// the limited schemes, and the §7 queued-lock grant behaviour under a
// hot-spot lock.
package main

import (
	"flag"
	"fmt"

	"dircoh/internal/cli"
	"dircoh/internal/exp"
	"dircoh/internal/sim"
)

func main() {
	var (
		app      = flag.String("app", "LocusRoute", "application for the sweeps")
		procs    = flag.Int("procs", exp.Procs, "processors")
		rounds   = flag.Int("rounds", 8, "lock acquisitions per processor in the contention study")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = one per core)")
	)
	obsFlags := cli.NewObs("ablate").EnableServer()
	flag.Parse()
	cli.Check("ablate", obsFlags.Start())
	defer obsFlags.Stop()
	s := obsFlags.Session(*parallel)

	fmt.Printf("Region-size sweep (Dir3CV_r on %s):\n\n", *app)
	_, tb := s.RegionSweep(*app, *procs)
	fmt.Println(tb)

	fmt.Printf("Pointer-count sweep (on %s):\n\n", *app)
	_, tb = s.PointerSweep(*app, *procs)
	fmt.Println(tb)

	fmt.Printf("Directory organizations (§7 alternatives, on %s):\n\n", *app)
	_, tb = s.DirectoryComparison(*app, *procs)
	fmt.Println(tb)

	fmt.Printf("Queued-lock contention (%d procs x %d acquisitions of one lock):\n\n", *procs, *rounds)
	_, tb = s.LockContention(*procs, *rounds)
	fmt.Println(tb)

	fmt.Println("Directory occupancy (§4.2 motivation — full directories are nearly empty):")
	fmt.Println()
	_, tb = s.OccupancyStudy(*procs)
	fmt.Println(tb)

	fmt.Printf("Network ejection-port contention (on %s):\n\n", *app)
	_, tb = s.NetworkContention(*app, *procs, []sim.Time{0, 4, 8})
	fmt.Println(tb)

	fmt.Println("Block-size tradeoff (§3.1, on MP3D):")
	fmt.Println()
	_, tb = s.BlockSizeStudy("MP3D", *procs, []int{16, 32, 64})
	fmt.Println(tb)

	fmt.Println("Barrier implementations under repeated global synchronization:")
	fmt.Println()
	_, tb = s.BarrierStudy(*procs, 8, []sim.Time{0, 8})
	fmt.Println(tb)
}
