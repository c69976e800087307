// Command simd is the long-running coherence-campaign service: clients
// POST experiment campaigns — paper sweeps, declarative suites, protocol
// stress campaigns — and the server decomposes each into indexed
// deterministic jobs, journals every completed job, and checkpoints
// periodically, so a server killed mid-campaign (SIGKILL included)
// resumes on restart by re-executing only the unfinished jobs and still
// produces the byte-identical final result. SIGTERM drains gracefully:
// in-flight jobs finish and are checkpointed, then the process exits 0.
//
//	simd -data /var/lib/simd -addr localhost:8723
//
// Endpoints:
//
//	POST /campaigns              submit a campaign spec (X-Tenant header
//	                             attributes it; 429 + Retry-After when
//	                             quotas or the queue reject it, 503 when
//	                             draining)
//	GET  /campaigns              every campaign's status
//	GET  /campaigns/{id}         one campaign's status
//	GET  /campaigns/{id}/result  the assembled result (when done)
//	GET  /campaigns/{id}/stream  JSONL job events, history then live
//	GET  /progress               in-flight run progress across campaigns
//	GET  /metrics                latest per-run metrics snapshots
//	GET  /healthz                "ok" (200) or "draining" (503)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"dircoh/internal/apps"
	"dircoh/internal/campaign"
	"dircoh/internal/cli"
	"dircoh/internal/obs"
)

const tool = "simd"

// server wires the campaign manager into HTTP handlers.
type server struct {
	m *campaign.Manager
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.submit)
	mux.HandleFunc("GET /campaigns", s.list)
	mux.HandleFunc("GET /campaigns/{id}", s.get)
	mux.HandleFunc("GET /campaigns/{id}/result", s.result)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.stream)
	mux.HandleFunc("GET /progress", s.progress)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.healthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	c, err := s.m.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		var busy *campaign.BusyError
		switch {
		case errors.As(err, &busy):
			// Backpressure, not failure: tell the client when to retry.
			w.Header().Set("Retry-After", strconv.Itoa(int(busy.RetryAfter.Seconds())))
			writeJSON(w, http.StatusTooManyRequests, errorBody{busy.Error()})
		case errors.Is(err, campaign.ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		}
		return
	}
	st, _ := s.m.Get(c.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	st, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"no such campaign"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.m.Result(id)
	if err != nil {
		if _, ok := s.m.Get(id); !ok {
			writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusConflict, errorBody{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, res)
}

// stream serves the campaign's job events as JSONL: full history first,
// then live events until the campaign reaches a terminal state or the
// client goes away.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	history, ch, err := s.m.Subscribe(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	for _, line := range history {
		fmt.Fprintln(w, line)
	}
	if flusher != nil {
		flusher.Flush()
	}
	if ch == nil {
		return
	}
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintln(w, line)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// progressEntry mirrors the -pprof server's /progress rows, keyed
// "<campaign>/<run>".
type progressEntry struct {
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
	Done   bool   `json:"done"`
}

func (s *server) progress(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]progressEntry)
	for id, live := range s.m.Lives() {
		for _, run := range live.Runs() {
			if sm := run.Latest(); sm != nil {
				out[id+"/"+run.Label()] = progressEntry{
					Cycles: sm.Cycles, Events: sm.Events, Done: sm.Done,
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]obs.Snapshot)
	for id, live := range s.m.Lives() {
		for _, run := range live.Runs() {
			if sm := run.Latest(); sm != nil {
				out[id+"/"+run.Label()] = sm.Metrics
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.m.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8723", "listen address (port 0 picks one; the resolved address prints to stderr)")
		data       = flag.String("data", "simd-data", "campaign state directory ('' runs volatile: nothing survives a restart)")
		maxActive  = flag.Int("max-active", 1, "concurrently running campaigns")
		queue      = flag.Int("queue", 8, "campaigns allowed to wait for a slot")
		maxTenants = flag.Int("max-tenants", 4, "tenants with unfinished campaigns")
		tenantJobs = flag.Int("tenant-jobs", 512, "outstanding jobs allowed per tenant")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock bound per job; timed-out jobs are quarantined as stuck (0 disables)")
		retries    = flag.Int("retries", 1, "re-runs of a failed (non-stuck) job before its failure record is final")
		ckptEvery  = flag.Int("checkpoint-every", 8, "journal appends between checkpoint compactions")
		parallel   = flag.Int("parallel", 0, "worker budget per campaign (0 = one per core)")
		drainWait  = flag.Duration("drain-timeout", 2*time.Minute, "how long SIGTERM waits for in-flight jobs before exiting anyway")
		traceDir   = flag.String("trace-dir", "", "directory the registered \"trace\" app replays (overrides the default)")
	)
	flag.Parse()
	if *traceDir != "" {
		apps.SetTraceDir(*traceDir)
	}

	m, err := campaign.Open(campaign.Config{
		Root: *data, MaxActive: *maxActive, QueueDepth: *queue,
		MaxTenants: *maxTenants, TenantJobs: *tenantJobs,
		JobRetries: *retries, JobTimeout: *jobTimeout,
		CheckpointEvery: *ckptEvery, Parallel: *parallel,
	})
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	ln, err := cli.Listen(*addr)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	srv := &http.Server{Handler: (&server{m: m}).routes()}
	fmt.Fprintf(os.Stderr, "%s: serving campaigns on http://%s (data %q)\n", tool, ln.Addr(), *data)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "%s: %s: draining (finishing in-flight jobs, checkpointing)\n", tool, sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: drain: %v\n", tool, err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		fmt.Fprintf(os.Stderr, "%s: drained, exiting\n", tool)
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fatalf(tool, "serve: %v", err)
		}
	}
}
