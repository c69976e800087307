package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
	"dircoh/internal/runner"
)

// Campaign states. A campaign is terminal in StateDone or StateFailed;
// StatePaused marks work interrupted by a drain (or found interrupted on
// disk after a crash) that will resume when scheduled again.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StatePaused  = "paused"
	StateDone    = "done"
	StateFailed  = "failed"
)

// BusyError reports that admission control rejected a submission; the
// caller should retry after RetryAfter (cmd/simd maps this to HTTP 429
// with a Retry-After header).
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("campaign: busy: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// ErrDraining rejects submissions while the manager shuts down.
var ErrDraining = errors.New("campaign: manager is draining")

// Config tunes one Manager.
type Config struct {
	// Root is the campaign state directory. "" runs volatile: nothing is
	// persisted and nothing survives the process (used by benchmarks to
	// measure checkpoint overhead against).
	Root string
	// MaxActive bounds concurrently running campaigns (default 1).
	MaxActive int
	// QueueDepth bounds campaigns waiting to run (default 8).
	QueueDepth int
	// MaxTenants bounds tenants with unfinished campaigns (default 4).
	MaxTenants int
	// TenantJobs bounds one tenant's outstanding (not yet executed) jobs
	// across its unfinished campaigns (default 512).
	TenantJobs int
	// JobRetries is how many times a failed job is re-run before a typed
	// failure record is written (default 1). Stuck jobs — watchdog aborts,
	// *machine.StuckError — are quarantined immediately, never retried.
	JobRetries int
	// JobTimeout, when > 0, bounds each job in wall-clock time via the
	// machine's watchdog; a timed-out job is quarantined as stuck.
	JobTimeout time.Duration
	// CheckpointEvery compacts the journal into checkpoint.json after this
	// many appends (default 8; < 0 disables periodic checkpoints).
	CheckpointEvery int
	// Parallel is the per-campaign worker budget (0 = one per core).
	Parallel int
	// NoSync skips the per-append journal fsync (tests; real servers keep
	// the default durable behavior).
	NoSync bool
	// JobRan, when non-nil, is called before every job execution — the
	// crash/resume tests count re-executed jobs through it.
	JobRan func(id string, job int)
}

func (c *Config) fill() {
	if c.MaxActive <= 0 {
		c.MaxActive = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4
	}
	if c.TenantJobs <= 0 {
		c.TenantJobs = 512
	}
	if c.JobRetries == 0 {
		c.JobRetries = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
}

// Campaign is one submitted spec and its execution state.
type Campaign struct {
	ID     string
	Tenant string

	spec Spec
	dir  string // "" when volatile

	mu       sync.Mutex
	state    string
	outcomes map[int]record
	jr       *journal
	appends  int // journal appends since the last checkpoint
	result   string
	failures []Failure
	live     *obs.Live
	obsSink  *obs.JSONLSink
	events   []string
	subs     []chan string
}

// Status is one campaign's externally visible state.
type Status struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Kind     string    `json:"kind"`
	Tenant   string    `json:"tenant,omitempty"`
	State    string    `json:"state"`
	Jobs     int       `json:"jobs"`
	Done     int       `json:"done"`
	Failures []Failure `json:"failures,omitempty"`
}

// Manager owns a set of campaigns: admission control, scheduling,
// persistence and resumption.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	queue     []*Campaign
	active    int
	seq       int
	draining  bool

	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Open builds a manager over cfg.Root, resuming every unfinished
// campaign it finds there (each re-executes only the jobs its checkpoint
// and journal do not already cover). With Root == "" the manager is
// volatile.
func Open(cfg Config) (*Manager, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{cfg: cfg, campaigns: make(map[string]*Campaign), runCtx: ctx, cancel: cancel}
	if cfg.Root != "" {
		if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
			cancel()
			return nil, err
		}
		if err := m.scan(); err != nil {
			cancel()
			return nil, err
		}
	}
	m.mu.Lock()
	m.schedule()
	m.mu.Unlock()
	return m, nil
}

// scan loads every campaign directory under Root, restoring terminal
// results and queueing unfinished campaigns for resumption.
func (m *Manager) scan() error {
	entries, err := os.ReadDir(m.cfg.Root)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(m.cfg.Root, e.Name(), specFile)); err != nil {
			continue
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	for _, id := range ids {
		dir := filepath.Join(m.cfg.Root, id)
		data, err := os.ReadFile(filepath.Join(dir, specFile))
		if err != nil {
			return err
		}
		var env specEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("campaign: %s/%s: %w", id, specFile, err)
		}
		outcomes, err := loadOutcomes(dir)
		if err != nil {
			return err
		}
		c := &Campaign{
			ID: env.ID, Tenant: env.Tenant, spec: env.Spec, dir: dir,
			outcomes: outcomes, live: obs.NewLive(),
		}
		c.rebuildEvents()
		var n int
		if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		switch {
		case exists(filepath.Join(dir, resultFile)):
			res, err := os.ReadFile(filepath.Join(dir, resultFile))
			if err != nil {
				return err
			}
			c.state = StateDone
			c.result = string(res)
			c.failures = collectFailures(outcomes)
			c.events = append(c.events, c.finalEventLine())
		case exists(filepath.Join(dir, failedFile)):
			fdata, err := os.ReadFile(filepath.Join(dir, failedFile))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(fdata, &c.failures); err != nil {
				return fmt.Errorf("campaign: %s/%s: %w", id, failedFile, err)
			}
			c.state = StateFailed
			c.events = append(c.events, c.finalEventLine())
		default:
			c.state = StateQueued
			m.queue = append(m.queue, c)
		}
		m.campaigns[c.ID] = c
		m.order = append(m.order, c.ID)
	}
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// rebuildEvents reconstructs the event history a resumed campaign's
// subscribers replay, in job order.
func (c *Campaign) rebuildEvents() {
	for _, rec := range sortedRecords(c.outcomes) {
		c.events = append(c.events, c.eventLine(rec))
	}
}

// Submit admits one campaign: spec validation, tenancy and queue-depth
// checks, durable spec write, and scheduling. tenant may be empty (the
// anonymous tenant still counts against MaxTenants and TenantJobs).
func (m *Manager) Submit(tenant string, spec Spec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		return nil, &BusyError{Reason: fmt.Sprintf("queue full (%d campaigns waiting)", len(m.queue)), RetryAfter: 30 * time.Second}
	}
	outstanding, tenants := m.outstandingLocked()
	if _, known := tenants[tenant]; !known && len(tenants) >= m.cfg.MaxTenants {
		return nil, &BusyError{Reason: fmt.Sprintf("%d tenants already active", len(tenants)), RetryAfter: 30 * time.Second}
	}
	if outstanding[tenant]+spec.Jobs() > m.cfg.TenantJobs {
		return nil, &BusyError{
			Reason:     fmt.Sprintf("tenant %q job quota: %d outstanding + %d submitted > %d", tenant, outstanding[tenant], spec.Jobs(), m.cfg.TenantJobs),
			RetryAfter: 10 * time.Second,
		}
	}

	m.seq++
	c := &Campaign{
		ID: fmt.Sprintf("c%04d", m.seq), Tenant: tenant, spec: spec,
		state: StateQueued, outcomes: make(map[int]record), live: obs.NewLive(),
	}
	if m.cfg.Root != "" {
		c.dir = filepath.Join(m.cfg.Root, c.ID)
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
		env := specEnvelope{ID: c.ID, Tenant: tenant, Spec: spec}
		data, err := json.MarshalIndent(&env, "", " ")
		if err != nil {
			return nil, err
		}
		if err := atomicWrite(filepath.Join(c.dir, specFile), data); err != nil {
			return nil, err
		}
	}
	m.campaigns[c.ID] = c
	m.order = append(m.order, c.ID)
	m.queue = append(m.queue, c)
	m.schedule()
	return c, nil
}

// outstandingLocked computes per-tenant unfinished job counts and the set
// of tenants owning any unfinished campaign. Caller holds m.mu.
func (m *Manager) outstandingLocked() (map[string]int, map[string]bool) {
	jobs := make(map[string]int)
	tenants := make(map[string]bool)
	for _, c := range m.campaigns {
		c.mu.Lock()
		terminal := c.state == StateDone || c.state == StateFailed
		remaining := c.spec.Jobs() - len(c.outcomes)
		c.mu.Unlock()
		if terminal {
			continue
		}
		tenants[c.Tenant] = true
		jobs[c.Tenant] += remaining
	}
	return jobs, tenants
}

// schedule starts queued campaigns while active slots remain. Caller
// holds m.mu.
func (m *Manager) schedule() {
	for !m.draining && m.active < m.cfg.MaxActive && len(m.queue) > 0 {
		c := m.queue[0]
		m.queue = m.queue[1:]
		m.active++
		m.wg.Add(1)
		go m.runCampaign(c)
	}
}

// runCampaign executes every job the campaign does not already have an
// outcome for, journaling each as it completes, then finalizes — or, if
// the run context was cancelled (drain), checkpoints and parks the
// campaign as paused.
func (m *Manager) runCampaign(c *Campaign) {
	defer m.wg.Done()
	c.mu.Lock()
	c.state = StateRunning
	if c.dir != "" {
		jr, err := openJournal(c.dir, !m.cfg.NoSync)
		if err != nil {
			c.state = StateFailed
			c.failures = append(c.failures, Failure{Kind: "error", Msg: err.Error()})
			c.mu.Unlock()
			m.finishSlot()
			return
		}
		c.jr = jr
		f, err := os.OpenFile(filepath.Join(c.dir, obsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			c.obsSink = obs.NewJSONLSink(f)
		}
	}
	c.mu.Unlock()

	sess := m.sessionFor(c)
	var pending []int
	c.mu.Lock()
	for i := 0; i < c.spec.Jobs(); i++ {
		if _, ok := c.outcomes[i]; !ok {
			pending = append(pending, i)
		}
	}
	c.mu.Unlock()

	jobW, _ := c.spec.jobParallel(m.cfg.Parallel)
	pool := runner.New(jobW)
	runner.CollectCtx(m.runCtx, pool, len(pending), func(k int) struct{} {
		m.execJob(c, sess, pending[k])
		return struct{}{}
	})
	m.finalize(c)
	m.finishSlot()
}

func (m *Manager) finishSlot() {
	m.mu.Lock()
	m.active--
	m.schedule()
	m.mu.Unlock()
}

// sessionFor builds the campaign's experiment session: its private live
// registry, the per-job deadline, and a metrics hook streaming every
// finished run's snapshot into the campaign's obs.jsonl.
func (m *Manager) sessionFor(c *Campaign) *exp.Session {
	ob := exp.Observer{Live: c.live, Deadline: m.cfg.JobTimeout}
	c.mu.Lock()
	sink := c.obsSink
	c.mu.Unlock()
	if sink != nil {
		ob.Metrics = func(run string, snap obs.Snapshot) {
			line, err := json.Marshal(struct {
				Run     string       `json:"run"`
				Metrics obs.Snapshot `json:"metrics"`
			}{run, snap})
			if err != nil {
				return
			}
			if sink.WriteLine(string(line)) == nil {
				sink.Flush()
			}
		}
	}
	_, sessW := c.spec.jobParallel(m.cfg.Parallel)
	return exp.NewSession(ob, sessW)
}

// execJob runs one job to a terminal record: success, quarantined stuck
// failure (no retry), or a typed error failure after JobRetries re-runs.
func (m *Manager) execJob(c *Campaign, sess *exp.Session, job int) {
	label := c.spec.JobLabel(job)
	var rec record
	for attempt := 1; ; attempt++ {
		if m.cfg.JobRan != nil {
			m.cfg.JobRan(c.ID, job)
		}
		out, err := c.spec.RunJob(job, sess, m.cfg.JobTimeout)
		if err == nil {
			rec = record{Job: job, Attempts: attempt, Out: out}
			break
		}
		var se *machine.StuckError
		if errors.As(err, &se) {
			// A wedged or timed-out simulation is deterministic enough to
			// wedge again: quarantine it instead of burning retries.
			rec = record{Job: job, Attempts: attempt, Fail: &Failure{
				Job: job, Label: label, Kind: "stuck", Msg: err.Error(), Attempts: attempt,
			}}
			break
		}
		if attempt > m.cfg.JobRetries {
			rec = record{Job: job, Attempts: attempt, Fail: &Failure{
				Job: job, Label: label, Kind: "error", Msg: err.Error(), Attempts: attempt,
			}}
			break
		}
	}
	m.commit(c, rec)
}

// commit records one finished job: journal append (fsynced unless
// NoSync), periodic checkpoint compaction, and event publication.
func (m *Manager) commit(c *Campaign, rec record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outcomes[rec.Job] = rec
	if c.jr != nil {
		if err := c.jr.append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "campaign %s: journal: %v\n", c.ID, err)
		}
		c.appends++
		if m.cfg.CheckpointEvery > 0 && c.appends >= m.cfg.CheckpointEvery {
			if err := writeCheckpoint(c.dir, c.jr, c.outcomes); err != nil {
				fmt.Fprintf(os.Stderr, "campaign %s: checkpoint: %v\n", c.ID, err)
			}
			c.appends = 0
		}
	}
	c.publishLocked(c.eventLine(rec))
}

// eventLine renders one job completion as a JSONL stream event.
func (c *Campaign) eventLine(rec record) string {
	ev := struct {
		Job      int    `json:"job"`
		Label    string `json:"label"`
		OK       bool   `json:"ok"`
		Attempts int    `json:"attempts"`
		Fail     string `json:"fail,omitempty"`
	}{rec.Job, c.spec.JobLabel(rec.Job), rec.Fail == nil, rec.Attempts, ""}
	if rec.Fail != nil {
		ev.Fail = rec.Fail.Kind + ": " + rec.Fail.Msg
	}
	line, _ := json.Marshal(ev)
	return string(line)
}

// finalEventLine renders the terminal stream event.
func (c *Campaign) finalEventLine() string {
	line, _ := json.Marshal(struct {
		Done  bool   `json:"done"`
		State string `json:"state"`
	}{true, c.state})
	return string(line)
}

// publishLocked appends one event line and fans it out. Subscriber
// channels are sized for the campaign's full event budget at subscribe
// time, so sends never block. Caller holds c.mu.
func (c *Campaign) publishLocked(line string) {
	c.events = append(c.events, line)
	for _, ch := range c.subs {
		ch <- line
	}
}

// finalize assembles the terminal state once no pending jobs remain, or
// checkpoints and parks the campaign when the run was cancelled
// mid-flight.
func (m *Manager) finalize(c *Campaign) {
	c.mu.Lock()
	defer c.mu.Unlock()
	complete := len(c.outcomes) == c.spec.Jobs()
	if !complete {
		// Drained mid-campaign: compact what we have and park. The next
		// schedule (or the next process) resumes from here.
		if c.jr != nil {
			if err := writeCheckpoint(c.dir, c.jr, c.outcomes); err != nil {
				fmt.Fprintf(os.Stderr, "campaign %s: checkpoint: %v\n", c.ID, err)
			}
			c.appends = 0
		}
		c.state = StatePaused
		c.closeFilesLocked()
		return
	}
	c.failures = collectFailures(c.outcomes)
	if len(c.failures) > 0 {
		c.state = StateFailed
		if c.dir != "" {
			data, err := json.MarshalIndent(c.failures, "", " ")
			if err == nil {
				err = atomicWrite(filepath.Join(c.dir, failedFile), data)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaign %s: %v\n", c.ID, err)
			}
		}
	} else {
		outs := make([]string, c.spec.Jobs())
		for i := range outs {
			outs[i] = c.outcomes[i].Out
		}
		res, err := c.spec.Assemble(outs)
		if err != nil {
			c.state = StateFailed
			c.failures = append(c.failures, Failure{Kind: "error", Msg: err.Error()})
		} else {
			c.result = res
			c.state = StateDone
			if c.dir != "" {
				if err := atomicWrite(filepath.Join(c.dir, resultFile), []byte(res)); err != nil {
					fmt.Fprintf(os.Stderr, "campaign %s: %v\n", c.ID, err)
				}
			}
		}
	}
	c.publishLocked(c.finalEventLine())
	for _, ch := range c.subs {
		close(ch)
	}
	c.subs = nil
	c.closeFilesLocked()
}

// closeFilesLocked closes the journal and obs sink. Caller holds c.mu.
func (c *Campaign) closeFilesLocked() {
	if c.jr != nil {
		c.jr.close()
		c.jr = nil
	}
	if c.obsSink != nil {
		c.obsSink.Close()
		c.obsSink = nil
	}
}

// collectFailures gathers failure records in job order.
func collectFailures(outcomes map[int]record) []Failure {
	var fails []Failure
	for _, rec := range sortedRecords(outcomes) {
		if rec.Fail != nil {
			fails = append(fails, *rec.Fail)
		}
	}
	return fails
}

// Get returns one campaign's status.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return c.status(), true
}

// List returns every campaign's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		m.mu.Lock()
		c := m.campaigns[id]
		m.mu.Unlock()
		out = append(out, c.status())
	}
	return out
}

func (c *Campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		ID: c.ID, Name: c.spec.Name, Kind: c.spec.Kind, Tenant: c.Tenant,
		State: c.state, Jobs: c.spec.Jobs(), Done: len(c.outcomes),
		Failures: append([]Failure(nil), c.failures...),
	}
}

// Result returns a finished campaign's assembled output. It errors until
// the campaign reaches StateDone.
func (m *Manager) Result(id string) (string, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("campaign: no campaign %q", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateDone:
		return c.result, nil
	case StateFailed:
		return "", fmt.Errorf("campaign: %s failed with %d failure(s)", id, len(c.failures))
	default:
		return "", fmt.Errorf("campaign: %s is %s", id, c.state)
	}
}

// Subscribe returns the campaign's event history so far plus, for a
// still-active campaign, a channel of future event lines (closed at the
// terminal event). The channel is buffered for the campaign's whole
// remaining event budget, so a slow reader never blocks job execution.
func (m *Manager) Subscribe(id string) ([]string, <-chan string, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("campaign: no campaign %q", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	history := append([]string(nil), c.events...)
	if c.state == StateDone || c.state == StateFailed {
		return history, nil, nil
	}
	ch := make(chan string, c.spec.Jobs()-len(c.outcomes)+2)
	c.subs = append(c.subs, ch)
	return history, ch, nil
}

// Lives returns the live-run registry of every non-terminal campaign,
// keyed by campaign ID — the /progress and /metrics aggregation source.
func (m *Manager) Lives() map[string]*obs.Live {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*obs.Live)
	for id, c := range m.campaigns {
		c.mu.Lock()
		terminal := c.state == StateDone || c.state == StateFailed
		c.mu.Unlock()
		if !terminal {
			out[id] = c.live
		}
	}
	return out
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops claiming new jobs, lets in-flight jobs finish and be
// journaled, checkpoints interrupted campaigns, and returns. Submissions
// fail with ErrDraining from the first call. The ctx bounds the wait.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with a generous deadline; for tests and defer.
func (m *Manager) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return m.Drain(ctx)
}
