package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dircoh/internal/campaign"
)

// ---- in-process handler tests ----

func newTestServer(t *testing.T, cfg campaign.Config) (*httptest.Server, *campaign.Manager) {
	t.Helper()
	m, err := campaign.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{m: m}).routes())
	t.Cleanup(func() { ts.Close(); m.Close() })
	return ts, m
}

func postSpec(t *testing.T, ts *httptest.Server, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, r io.Reader) campaign.Status {
	t.Helper()
	var st campaign.Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) campaign.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		switch st.State {
		case campaign.StateDone:
			return st
		case campaign.StateFailed:
			t.Fatalf("campaign %s failed: %+v", id, st.Failures)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return campaign.Status{}
}

const smallStress = `{"kind":"stress","name":"t","stress":{"trials":3,"seed":21,"procs":[4],"refs":100,"blocks":8}}`

func TestSubmitRunFetch(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Config{Parallel: 2})
	resp := postSpec(t, ts, "alice", smallStress)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.ID == "" || st.Jobs != 3 || st.Tenant != "alice" {
		t.Fatalf("created status = %+v", st)
	}
	waitDone(t, ts, st.ID)

	res, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", res.Status)
	}
	body, _ := io.ReadAll(res.Body)
	if !strings.Contains(string(body), "trial   0 seed=") {
		t.Fatalf("result lacks trial lines:\n%s", body)
	}

	// Stream replays every job event plus the terminal record.
	sres, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	lines := 0
	sc := bufio.NewScanner(sres.Body)
	var lastLine string
	for sc.Scan() {
		lines++
		lastLine = sc.Text()
	}
	if lines != 4 || !strings.Contains(lastLine, `"done":true`) {
		t.Fatalf("stream had %d lines, last %q", lines, lastLine)
	}

	// List includes it.
	lres, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer lres.Body.Close()
	var all []campaign.Status
	if err := json.NewDecoder(lres.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list = %+v", all)
	}
}

func TestSubmitErrors(t *testing.T) {
	var ran atomic.Int32
	ts, _ := newTestServer(t, campaign.Config{TenantJobs: 4, JobRan: func(string, int) { ran.Add(1) }})
	// Malformed JSON.
	resp := postSpec(t, ts, "", `{"kind":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %s", resp.Status)
	}
	resp.Body.Close()
	// Unknown kind.
	resp = postSpec(t, ts, "", `{"kind":"nope","stress":{}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %s", resp.Status)
	}
	resp.Body.Close()
	// An unknown suite app: refused at submission, naming the app, not
	// accepted and retried as a failing job.
	resp = postSpec(t, ts, "", `{"kind":"suite","suite":{"runs":[{"app":"NoSuchApp"}]}}`)
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `unknown application "NoSuchApp"`) {
		t.Fatalf("unknown app: %s %q", resp.Status, body.Error)
	}
	// So is a suite machine that does not build.
	resp = postSpec(t, ts, "", `{"kind":"suite","suite":{"runs":[{"app":"FFT","machine":{"scheme":{"kind":"nope"}}}]}}`)
	body.Error = ""
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `unknown scheme "nope"`) {
		t.Fatalf("unknown scheme: %s %q", resp.Status, body.Error)
	}
	// Over the tenant job quota: 429 with a Retry-After hint.
	resp = postSpec(t, ts, "greedy", `{"kind":"stress","stress":{"trials":50}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota: %s", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q", ra)
	}
	resp.Body.Close()
	// Unknown campaign paths.
	for _, path := range []string{"/campaigns/zzz", "/campaigns/zzz/result", "/campaigns/zzz/stream"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s", path, r.Status)
		}
		r.Body.Close()
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran, want none: every submission was refused", n)
	}
}

func TestHealthz(t *testing.T) {
	ts, m := newTestServer(t, campaign.Config{})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", r.Status)
	}
	m.Close() // drains
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %s", r.Status)
	}
}

// ---- end-to-end process tests (crash and drain) ----

var (
	simdBin   string
	buildOnce sync.Once
)

// buildSimd compiles the real binary once, lazily, so -short runs (which
// skip every process-level test) never pay for the build.
func buildSimd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "simd-bin")
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Join(dir, "simd")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		simdBin = bin
	})
	if simdBin == "" {
		t.Fatal("simd binary build failed in an earlier test")
	}
	return simdBin
}

// proc is one running simd process. dir is its working directory (a
// fresh temp dir, so relative writes are observable and isolated).
type proc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// startSimd launches the built binary in a fresh working directory and
// parses its resolved listen address from stderr.
func startSimd(t *testing.T, args ...string) *proc {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(buildSimd(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "http://"); ok {
				if addr, _, found := strings.Cut(rest, " "); found {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, addr: addr, dir: dir}
	case <-time.After(30 * time.Second):
		t.Fatal("simd never reported its listen address")
		return nil
	}
}

func httpPost(t *testing.T, url, body string) campaign.Status {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, b)
	}
	return decodeStatus(t, resp.Body)
}

func procStatus(t *testing.T, p *proc, id string) campaign.Status {
	t.Helper()
	resp, err := http.Get(p.url("/campaigns/" + id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeStatus(t, resp.Body)
}

func procWaitDone(t *testing.T, p *proc, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := procStatus(t, p, id)
		if st.State == campaign.StateDone {
			return
		}
		if st.State == campaign.StateFailed {
			t.Fatalf("campaign %s failed: %+v", id, st.Failures)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
}

func procResult(t *testing.T, p *proc, id string) string {
	t.Helper()
	resp, err := http.Get(p.url("/campaigns/" + id + "/result"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// bigStress is sized so a kill window exists mid-campaign with -parallel 1.
const bigStress = `{"kind":"stress","name":"e2e","stress":{"trials":12,"seed":7,"procs":[4,6],"refs":2000,"blocks":24}}`

// waitPartial polls until at least lo jobs (but not all) are done.
func waitPartial(t *testing.T, p *proc, id string, lo int) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := procStatus(t, p, id)
		if st.Done >= lo && st.Done < st.Jobs {
			return
		}
		if st.State == campaign.StateDone || st.Done >= st.Jobs {
			t.Skip("campaign finished before the kill window; machine too fast for this run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %d done jobs", id, lo)
}

// TestCrashResumeE2E: SIGKILL the server mid-campaign, restart it on the
// same data directory, and the campaign completes with a result
// byte-identical to an uninterrupted run of the same spec.
func TestCrashResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash test")
	}
	data := t.TempDir()
	p1 := startSimd(t, "-data", data, "-parallel", "1", "-checkpoint-every", "2")
	st := httpPost(t, p1.url("/campaigns"), bigStress)
	waitPartial(t, p1, st.ID, 2)

	// Hard kill: no drain, no checkpoint flush beyond what already hit disk.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()

	p2 := startSimd(t, "-data", data, "-parallel", "1", "-checkpoint-every", "2")
	procWaitDone(t, p2, st.ID)
	resumed := procResult(t, p2, st.ID)

	// Reference: same spec, uninterrupted, on the same server.
	ref := httpPost(t, p2.url("/campaigns"), bigStress)
	procWaitDone(t, p2, ref.ID)
	clean := procResult(t, p2, ref.ID)
	if resumed != clean {
		t.Fatalf("resumed result diverged from clean run:\nresumed:\n%s\nclean:\n%s", resumed, clean)
	}
}

// TestSigtermDrainE2E: SIGTERM mid-campaign drains gracefully (exit 0);
// a restart completes the campaign with the byte-identical result.
func TestSigtermDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level drain test")
	}
	data := t.TempDir()
	p1 := startSimd(t, "-data", data, "-parallel", "1")
	st := httpPost(t, p1.url("/campaigns"), bigStress)
	waitPartial(t, p1, st.ID, 1)

	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p1.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited nonzero: %v", err)
	}

	p2 := startSimd(t, "-data", data, "-parallel", "1")
	procWaitDone(t, p2, st.ID)
	resumed := procResult(t, p2, st.ID)

	ref := httpPost(t, p2.url("/campaigns"), bigStress)
	procWaitDone(t, p2, ref.ID)
	if clean := procResult(t, p2, ref.ID); resumed != clean {
		t.Fatalf("drained result diverged from clean run:\nresumed:\n%s\nclean:\n%s", resumed, clean)
	}
}

// TestVolatileFlag: -data ” runs without persisting anything — the
// server's working directory stays empty end to end.
func TestVolatileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	p := startSimd(t, "-data", "")
	st := httpPost(t, p.url("/campaigns"), smallStress)
	procWaitDone(t, p, st.ID)
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("volatile server wrote files: %v", entries)
	}
}
