package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dircoh/internal/campaign"
	"dircoh/internal/rng"
)

// The simd-stress load: min(2, nproc) closed-loop clients, each cycling
// through its own seedsPerClient stress campaigns, so every campaign's
// result repeats and can be compared byte for byte. A campaign is small:
// stressTrials trials of stressProcs processors drawing stressRefs
// references each over stressBlocks blocks, with the checker on (stress
// campaigns always run it). It is big enough that simulation sets the
// pace: with much smaller campaigns a run completes thousands, and the
// cost of listing them all on every GET /campaigns feeds back into the
// throughput being measured.
const (
	maxClients     = 2
	seedsPerClient = 8
	stressTrials   = 4
	stressProcs    = 8
	stressRefs     = 500
	stressBlocks   = 16
	serverStarts   = 5
)

// gcTrace matches one GODEBUG=gctrace=1 line: the stop-the-world clock
// phases and the heap at GC start, at GC end, and live after marking.
var gcTrace = regexp.MustCompile(`^gc \d+ @\S+ \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock, .* (\d+)->(\d+)->(\d+) MB`)

var execCycles = regexp.MustCompile(`(?m)^trial +\d+ .* exec=(\d+) cycles$`)

// simdServer is one running cmd/simd process. Its standard error is read
// to find the listen address and to follow its GC trace: heap allocated
// since the previous cycle, summed, is the server's allocation.
type simdServer struct {
	cmd  *exec.Cmd
	base string
	pid  string
	done chan struct{} // closed once standard error reaches EOF

	mu      sync.Mutex
	allocMB float64
	gcs     int
	pauseMS float64
}

func (s *simdServer) gcTotals() (allocMB float64, gcs int, pauseMS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocMB, s.gcs, s.pauseMS
}

// startServer starts simd on a free port over dataDir and returns once
// /healthz answers 200, with the time that took.
func startServer(bin, dataDir string) (*simdServer, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &simdServer{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	addr := make(chan string, 1)
	go s.readStderr(stderr, addr)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, 0, fmt.Errorf("simd exited before serving: %v", cmd.Wait())
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, 0, errors.New("simd did not report its address within 10s")
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("simd /healthz not ready within 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *simdServer) readStderr(r io.Reader, addr chan<- string) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	var live float64
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if m := gcTrace.FindStringSubmatch(line); m != nil {
			f := make([]float64, len(m))
			for i := 1; i < len(m); i++ {
				f[i], _ = strconv.ParseFloat(m[i], 64)
			}
			s.mu.Lock()
			s.gcs++
			s.pauseMS += f[1] + f[2]
			s.allocMB += max(f[3]-live, 0)
			s.mu.Unlock()
			live = f[5]
			continue
		}
		if _, a, ok := strings.Cut(line, "serving campaigns on http://"); ok && !sent {
			addr <- strings.Fields(a)[0]
			sent = true
			continue
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; it kills the server if the drain hangs.
func (s *simdServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	return s.cmd.Wait()
}

// serverIO returns the server's bytes written to storage and its CPU
// milliseconds so far, from /proc/<pid>/io and /proc/<pid>/stat.
func (s *simdServer) serverIO() (writeBytes, cpuMS float64, err error) {
	counters, err := os.ReadFile(filepath.Join("/proc", s.pid, "io"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(counters), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			writeBytes, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	stat, err := os.ReadFile(filepath.Join("/proc", s.pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in 100 Hz ticks.
	_, rest, _ := strings.Cut(string(stat), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", s.pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return writeBytes, (utime + stime) * 10, nil
}

// campaignSample is one client-observed campaign: its timings in
// milliseconds and what it returned.
type campaignSample struct {
	seed                       int64
	ok                         bool
	fail                       string
	non2xx                     int
	latency, submit, queueWait float64
	finalize, result, status   float64
	jobGaps                    []float64
	body                       [32]byte
	cycles                     float64
}

// simdClient submits campaigns one at a time until the deadline.
type simdClient struct {
	id      int
	seed    int64
	base    string
	http    *http.Client
	spans   *hostSpans
	samples []campaignSample
}

func (c *simdClient) loop(deadline time.Time) {
	for k := 0; time.Now().Before(deadline); k++ {
		seed := rng.Mix(c.seed, int64(c.id*seedsPerClient+k%seedsPerClient))
		s := c.campaign(fmt.Sprintf("client-%d/campaign-%d", c.id, k), seed)
		s.seed = seed
		c.samples = append(c.samples, s)
	}
}

// get issues one GET under a span and returns the body; any status but
// 200 fails it.
func (c *simdClient) get(trace string, parent int, path string, s *campaignSample) ([]byte, float64, error) {
	id := c.spans.start(trace, "GET "+path, parent)
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.spans.end(id)
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(c.spans.end(id)) / 1e6
	if err != nil {
		return nil, ms, err
	}
	if resp.StatusCode != http.StatusOK {
		s.non2xx++
		return nil, ms, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, ms, nil
}

// campaign submits one stress campaign, follows its event stream to the
// terminal event, fetches the result, and reads the service's listings.
func (c *simdClient) campaign(trace string, seed int64) (s campaignSample) {
	fail := func(format string, args ...any) campaignSample {
		s.fail = fmt.Sprintf(format, args...)
		return s
	}
	root := c.spans.start(trace, "campaign", 0)
	defer c.spans.end(root)
	spec := campaign.Spec{Kind: "stress", Name: "perfbench", Stress: &campaign.StressSpec{
		Trials: stressTrials, Seed: seed, Procs: []int{stressProcs}, Refs: stressRefs, Blocks: stressBlocks,
	}}
	payload, err := json.Marshal(spec)
	if err != nil {
		return fail("encoding spec: %v", err)
	}
	t0 := time.Now()
	id := c.spans.start(trace, "POST /campaigns", root)
	req, err := http.NewRequest(http.MethodPost, c.base+"/campaigns", bytes.NewReader(payload))
	if err != nil {
		c.spans.end(id)
		return fail("%v", err)
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("perfbench-%d", c.id))
	resp, err := c.http.Do(req)
	if err != nil {
		c.spans.end(id)
		return fail("POST /campaigns: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.submit = float64(c.spans.end(id)) / 1e6
	accepted := time.Now()
	if err != nil {
		return fail("POST /campaigns: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		s.non2xx++ // 429 and 503 included: a refused campaign is a failed one
		return fail("POST /campaigns: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var st campaign.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("POST /campaigns: %v", err)
	}

	id = c.spans.start(trace, "GET /campaigns/{id}/stream", root)
	resp, err = c.http.Get(c.base + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		c.spans.end(id)
		return fail("stream: %v", err)
	}
	var jobs []time.Time
	state, okJobs := "", 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			OK    bool   `json:"ok"`
			Fail  string `json:"fail"`
			Done  bool   `json:"done"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			c.spans.end(id)
			return fail("stream: %v", err)
		}
		if ev.Done {
			state = ev.State
			break
		}
		jobs = append(jobs, time.Now())
		if ev.OK {
			okJobs++
		} else if s.fail == "" {
			s.fail = "job failed: " + ev.Fail
		}
	}
	resp.Body.Close()
	c.spans.end(id)
	if resp.StatusCode != http.StatusOK {
		s.non2xx++
		return fail("stream: status %d", resp.StatusCode)
	}
	if s.fail != "" {
		return s
	}
	if state != campaign.StateDone || okJobs != stressTrials {
		return fail("campaign %s ended %q with %d of %d jobs ok", st.ID, state, okJobs, stressTrials)
	}

	res, ms, err := c.get(trace, root, "/campaigns/"+st.ID+"/result", &s)
	if err != nil {
		return fail("%v", err)
	}
	done := time.Now()
	s.result = ms
	s.latency = float64(done.Sub(t0)) / 1e6
	s.queueWait = float64(jobs[0].Sub(accepted)) / 1e6
	s.finalize = float64(done.Sub(jobs[len(jobs)-1])) / 1e6
	for i := 1; i < len(jobs); i++ {
		s.jobGaps = append(s.jobGaps, float64(jobs[i].Sub(jobs[i-1]))/1e6)
	}
	s.body = sha256.Sum256(res)
	trials := execCycles.FindAllSubmatch(res, -1)
	if len(trials) != stressTrials {
		return fail("result of %s has %d trial lines, want %d", st.ID, len(trials), stressTrials)
	}
	for _, t := range trials {
		v, _ := strconv.ParseFloat(string(t[1]), 64)
		s.cycles += v
	}

	// Between campaigns a client reads the listings, as a dashboard would.
	if _, s.status, err = c.get(trace, root, "/campaigns", &s); err != nil {
		return fail("%v", err)
	}
	for _, path := range []string{"/progress", "/metrics"} {
		if _, _, err := c.get(trace, root, path, &s); err != nil {
			return fail("%v", err)
		}
	}
	s.ok = true
	return s
}

// runSimd runs the simd-stress workload against a fresh server over a
// temporary data directory, which it removes afterwards.
func runSimd(o options, rep *report) {
	data, err := os.MkdirTemp(o.outDir, "simd-data-")
	if err != nil {
		rep.failf("creating data directory: %v", err)
		return
	}
	defer os.RemoveAll(data)

	var srv *simdServer
	var starts []float64
	for i := 0; i < serverStarts; i++ {
		rep.attempted++
		id := rep.spans.start("setup", "simd start", 0)
		s, d, err := startServer(o.simdBin, filepath.Join(data, fmt.Sprintf("start-%d", i)))
		rep.spans.end(id)
		if err != nil {
			rep.failf("starting simd: %v", err)
			return
		}
		starts = append(starts, d.Seconds())
		if i == serverStarts-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			rep.failf("stopping simd: %v", err)
		}
	}
	defer func() {
		if err := srv.stop(); err != nil {
			rep.failf("stopping simd: %v", err)
		}
	}()
	rep.set("setup_s", median(starts))
	fmt.Printf("engine %s server defaults (no -shards or -parallel flag); the API does not expose a job's engine\n", rep.workload)

	var stopProfile func() (layerCPU, error)
	if o.trace {
		if stopProfile, err = startProfile(filepath.Join(o.outDir, "cpu-"+rep.workload+".pprof")); err != nil {
			rep.failf("starting CPU profile: %v", err)
		}
	}
	w0, cpu0, err := srv.serverIO()
	if err != nil {
		rep.failf("reading server I/O: %v", err)
	}
	alloc0, gcs0, pause0 := srv.gcTotals()
	clients := make([]*simdClient, min(maxClients, runtime.NumCPU()))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = &simdClient{id: i, seed: o.seed, base: srv.base, http: &http.Client{Timeout: time.Minute}, spans: rep.spans}
		wg.Add(1)
		go func(c *simdClient) {
			defer wg.Done()
			c.loop(start.Add(o.window))
		}(clients[i])
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	w1, cpu1, err := srv.serverIO()
	if err != nil {
		rep.failf("reading server I/O: %v", err)
	}
	rss, err := peakRSS(srv.pid)
	if err != nil {
		rep.failf("reading server peak RSS: %v", err)
	}
	alloc1, gcs1, pause1 := srv.gcTotals()

	var lat, submit, status, result, queue, job, finalize []float64
	bodies := map[int64][32]byte{}
	cycles := map[int64]float64{}
	repeats := map[int64]int{}
	non2xx := 0
	for _, c := range clients {
		for _, s := range c.samples {
			rep.attempted++
			non2xx += s.non2xx
			if !s.ok {
				rep.failf("client %d seed %d: %s", c.id, s.seed, s.fail)
				continue
			}
			if b, seen := bodies[s.seed]; seen && b != s.body {
				rep.failf("client %d seed %d: result differs from an earlier run of the same campaign", c.id, s.seed)
				continue
			}
			bodies[s.seed], cycles[s.seed] = s.body, s.cycles
			repeats[s.seed]++
			lat, submit, status = append(lat, s.latency), append(submit, s.submit), append(status, s.status)
			result, queue, finalize = append(result, s.result), append(queue, s.queueWait), append(finalize, s.finalize)
			job = append(job, s.jobGaps...)
		}
	}
	for _, c := range clients {
		for k := 0; k < seedsPerClient; k++ {
			seed := rng.Mix(o.seed, int64(c.id*seedsPerClient+k))
			if repeats[seed] < 2 {
				rep.failf("client %d seed %d completed %d times; its result needs two to compare", c.id, seed, repeats[seed])
			}
		}
	}
	var simCycles float64
	for _, v := range cycles {
		simCycles += v
	}
	n := float64(len(lat))
	fmt.Printf("samples %s campaigns=%d clients=%d window_s=%.3f\n", rep.workload, len(lat), len(clients), window)
	rep.set("refs_per_s", n*stressTrials*stressProcs*stressRefs/window)
	rep.set("alloc_mb", ratio(alloc1-alloc0, n))
	rep.set("peak_rss_mb", rss)
	rep.set("sim_cycles", simCycles)
	rep.set("campaigns_per_s", n/window)
	rep.set("campaign_p50_ms", quantile(lat, 0.50))
	rep.set("campaign_p95_ms", quantile(lat, 0.95))

	if !o.trace {
		return
	}
	if stopProfile != nil {
		cpu, err := stopProfile()
		if err != nil {
			rep.failf("attributing CPU profile: %v", err)
		}
		cpu.report(rep)
	}
	rep.set("runtime.gc_cycles", float64(gcs1-gcs0))
	rep.set("runtime.gc_pause_ms", pause1-pause0)
	rep.set("campaign.queue_wait_ms_p50", median(queue))
	rep.set("campaign.job_ms_p50", median(job))
	rep.set("campaign.finalize_ms_p50", median(finalize))
	rep.set("campaign.disk_write_kb", ratio((w1-w0)/1024, n))
	rep.set("campaign.server_cpu_ms", ratio(cpu1-cpu0, n))
	rep.set("simd.submit_ms_p50", quantile(submit, 0.50))
	rep.set("simd.submit_ms_p95", quantile(submit, 0.95))
	rep.set("simd.status_ms_p50", median(status))
	rep.set("simd.result_ms_p50", median(result))
	rep.set("simd.http_non2xx", float64(non2xx))
	idleLayers(rep)
}
