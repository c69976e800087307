package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"dircoh/internal/obs"
)

// getJSON fetches url and decodes the body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v in %q", url, err, body)
	}
}

// TestLiveServerEndpoints drives the -pprof server's /metrics and
// /progress views: publish two runs' samples into the live registry and
// read them back over HTTP.
func TestLiveServerEndpoints(t *testing.T) {
	o := &Obs{tool: "clitest", pprofAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	addr := o.ServerAddr()
	if addr == "" {
		t.Fatal("server did not report an address")
	}
	if o.Live() == nil {
		t.Fatal("Live() is nil with the server running")
	}

	// An in-flight run and a finished one.
	reg := obs.NewRegistry()
	reg.Counter("msg.readreq").Add(41)
	o.Live().Run("sweep/cell-0").Publish(&obs.LiveSample{
		Cycles:  1000,
		Events:  5000,
		Metrics: reg.Snapshot(),
	})
	reg2 := obs.NewRegistry()
	reg2.Counter("msg.readreq").Add(7)
	o.Live().Run("sweep/cell-1").Publish(&obs.LiveSample{
		Cycles:  2000,
		Events:  9000,
		Done:    true,
		Metrics: reg2.Snapshot(),
	})

	var prog map[string]progressEntry
	getJSON(t, fmt.Sprintf("http://%s/progress", addr), &prog)
	if len(prog) != 2 {
		t.Fatalf("/progress has %d runs, want 2: %v", len(prog), prog)
	}
	p0 := prog["sweep/cell-0"]
	if p0.Cycles != 1000 || p0.Events != 5000 || p0.Done {
		t.Fatalf("cell-0 progress = %+v", p0)
	}
	if p1 := prog["sweep/cell-1"]; !p1.Done || p1.Cycles != 2000 {
		t.Fatalf("cell-1 progress = %+v", p1)
	}

	var mets map[string]obs.Snapshot
	getJSON(t, fmt.Sprintf("http://%s/metrics", addr), &mets)
	if got := mets["sweep/cell-0"].Counter("msg.readreq"); got != 41 {
		t.Fatalf("cell-0 msg.readreq = %d, want 41", got)
	}
	if got := mets["sweep/cell-1"].Counter("msg.readreq"); got != 7 {
		t.Fatalf("cell-1 msg.readreq = %d, want 7", got)
	}

	// A run that has not published yet is listed in neither view.
	o.Live().Run("sweep/cell-2")
	getJSON(t, fmt.Sprintf("http://%s/progress", addr), &prog)
	if _, ok := prog["sweep/cell-2"]; ok {
		t.Fatal("unpublished run appeared in /progress")
	}

	// pprof rides on the same mux.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %s", resp.Status)
	}

	o.Stop()
	if o.ServerAddr() != "" {
		t.Fatal("ServerAddr nonempty after Stop")
	}
}

// TestStopDrainsInFlightRequest: Stop must let a request already being
// served finish (http.Server.Shutdown semantics) instead of abandoning
// the listener with connections open.
func TestStopDrainsInFlightRequest(t *testing.T) {
	o := &Obs{tool: "clitest", pprofAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	addr := o.ServerAddr()

	// Park a request inside a handler, then Stop concurrently.
	entered := make(chan struct{})
	release := make(chan struct{})
	o.srv.Handler.(*http.ServeMux).HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/slow", addr))
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- string(body)
	}()
	<-entered

	stopped := make(chan struct{})
	go func() { o.Stop(); close(stopped) }()

	// New connections are refused once Shutdown has begun, but the parked
	// request must still complete.
	select {
	case <-stopped:
		t.Fatal("Stop returned while a request was in flight")
	default:
	}
	close(release)
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request got %q, want %q", body, "done")
	}
	<-stopped
	if o.ServerAddr() != "" {
		t.Fatal("ServerAddr nonempty after Stop")
	}
}

// TestStartBindError: a second server on the same address must fail with
// a typed *BindError naming the address.
func TestStartBindError(t *testing.T) {
	o := &Obs{tool: "clitest", pprofAddr: "127.0.0.1:0"}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	o2 := &Obs{tool: "clitest", pprofAddr: o.ServerAddr()}
	err := o2.Start()
	var be *BindError
	if !errors.As(err, &be) {
		t.Fatalf("second Start = %v, want *BindError", err)
	}
	if be.Addr != o.ServerAddr() {
		t.Fatalf("BindError.Addr = %q, want %q", be.Addr, o.ServerAddr())
	}
	if !strings.Contains(err.Error(), "cannot bind") {
		t.Fatalf("error text %q lacks bind detail", err)
	}
}

// TestSessionWiring: the session every experiment command builds carries
// the checker under -check and the requested parallelism.
func TestSessionWiring(t *testing.T) {
	s := (&Obs{tool: "clitest", checkOn: true}).Session(2)
	if s.Observer().Check == nil {
		t.Fatal("-check session carries no Check hook")
	}
	if s.Parallelism() != 2 {
		t.Fatalf("session parallelism %d, want 2", s.Parallelism())
	}
	if (&Obs{tool: "clitest"}).Session(1).Observer().Check != nil {
		t.Fatal("session without -check carries a Check hook")
	}
}
