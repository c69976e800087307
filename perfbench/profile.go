package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// samplePeriod is the CPU profiler's default sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

const internalPrefix = "dircoh/internal/"

// layerCPU is a CPU profile's samples by layer: each sample belongs to
// the innermost dircoh/internal/<pkg> frame of its stack, to "other" when
// that package is not one of cpuLayers, and to "runtime" when no internal
// frame is on the stack.
type layerCPU struct {
	samples map[string]int
	total   int
}

// startProfile starts the CPU profile of the traced run; the returned
// function stops it and attributes its samples.
func startProfile(path string) (func() (layerCPU, error), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (layerCPU, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return layerCPU{}, err
		}
		return attribute(path)
	}, nil
}

// attribute reads a CPU profile through `go tool pprof -traces`, which
// prints one block per distinct stack: the block's first line holds the
// stack's sampled time and its leaf frame, each further line one caller.
func attribute(path string) (layerCPU, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return layerCPU{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

func parseTraces(out []byte) (layerCPU, error) {
	cpu := layerCPU{samples: map[string]int{}}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	var n int        // samples of the current block
	var layer string // innermost internal package of the block so far
	seen := false    // the block's first line, with its sample time, was read
	flush := func() {
		if !seen {
			return
		}
		if layer == "" {
			layer = "runtime"
		} else if !known[layer] {
			layer = "other"
		}
		cpu.samples[layer] += n
		cpu.total += n
		n, layer, seen = 0, "", false
	}
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue // header: File, Type, Time, Duration
		}
		frame := fields[0]
		if !seen {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return cpu, fmt.Errorf("pprof -traces: no sample time in %q", line)
			}
			n, seen, frame = int(math.Round(float64(d)/float64(samplePeriod))), true, fields[1]
		}
		if rest, ok := strings.CutPrefix(frame, internalPrefix); ok && layer == "" {
			layer, _, _ = strings.Cut(rest, ".")
		}
	}
	flush()
	return cpu, sc.Err()
}

// report sets each layer's <layer>.cpu_s, the profiled total, and prints
// the sample count under every share.
func (c layerCPU) report(rep *report) {
	var sum float64
	for _, l := range cpuLayers {
		s := float64(c.samples[l]) * samplePeriod.Seconds()
		sum += s
		rep.set(l+".cpu_s", s)
		fmt.Printf("cpu %s %s samples=%d share=%.3f\n", rep.workload, l, c.samples[l], ratio(float64(c.samples[l]), float64(c.total)))
	}
	total := float64(c.total) * samplePeriod.Seconds()
	rep.set("profile.cpu_s", total)
	rep.set("profile.samples", float64(c.total))
	if math.Abs(sum-total) > 1e-9 {
		rep.failf("per-layer CPU %.3fs does not sum to the profiled %.3fs", sum, total)
	}
}
