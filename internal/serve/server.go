package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hotgauge/internal/chaos"
	"hotgauge/internal/cluster"
	"hotgauge/internal/fault"
	"hotgauge/internal/obs"
	"hotgauge/internal/report"
	"hotgauge/internal/sim"
	"hotgauge/internal/store"
	"hotgauge/internal/thermal"
)

// Options tunes a Server. The zero value is a sensible single-node
// deployment.
type Options struct {
	// QueueSize bounds how many submitted jobs may wait for a worker
	// (default 16). A full queue rejects submissions with HTTP 429 and a
	// Retry-After hint — backpressure is explicit, never an unbounded
	// in-memory backlog.
	QueueSize int
	// Workers is the number of jobs executed concurrently (default 1:
	// one campaign at a time, its runs spread across cores).
	Workers int
	// RunWorkers caps the simulations this daemon runs at once, across
	// all jobs (0 = GOMAXPROCS): the coordinator's local executor and,
	// once joined to a cluster, the worker half each get this many.
	RunWorkers int
	// CacheBytes is the result cache's payload budget (default 64 MiB).
	CacheBytes int64
	// Registry receives every serve/* metric plus the sim/* metrics of
	// the runs the server executes (nil = a fresh registry).
	Registry *obs.Registry

	// RunTimeout bounds each run's wall time (0 = unlimited). A run
	// exceeding it fails with a *sim.RunTimeoutError — counted in
	// serve/timeouts and attributed to that run alone — while its
	// siblings and the job continue.
	RunTimeout time.Duration
	// JobTimeout bounds a whole job's execution, measured from the
	// moment a worker picks it up (0 = unlimited). A job exceeding it
	// finishes failed with its remaining runs skipped, counted in
	// serve/timeouts.
	JobTimeout time.Duration
	// Retries is how many times a run failing with a retryable error
	// (sim.Retryable: injected transients, solver divergence) is
	// re-attempted with exponential backoff, counted in sim/retries
	// (0 = never). A diverging run is retried on the unconditionally
	// stable ADI solver.
	Retries int
	// MaxBodyBytes caps a POST /jobs request body (default 8 MiB);
	// larger submissions are refused with 413.
	MaxBodyBytes int64

	// DataDir, when set, makes the server durable: job lifecycle is
	// journaled to DataDir/journal, result payloads are persisted to the
	// content-addressed store under DataDir/results, and a restarted
	// daemon replays the journal — finished jobs come back read-only,
	// jobs that were queued or in-flight are requeued and their
	// already-persisted runs are served from disk instead of being
	// re-simulated. Empty keeps the PR-3 in-memory behaviour.
	DataDir string
	// Fsync picks the journal durability/throughput trade-off: "always"
	// fsyncs every append, "interval" (the default) batches syncs on a
	// 100ms ticker, "never" leaves flushing to the OS. Ignored without
	// DataDir.
	Fsync string
	// CheckpointEvery, when positive, snapshots every executed run's
	// state each N steps into DataDir/checkpoints so an interrupted run
	// (crash, retry) resumes from its last snapshot instead of t=0.
	// Requires DataDir; runs whose config checkpointing cannot represent
	// simply execute without one.
	CheckpointEvery int

	// FaultRate, when positive, wraps every executed run's thermal
	// solver in a fault.FlakySolver injecting random panics, transient
	// errors and stalls at this total per-step probability — the
	// dev-only harness behind hotgauged -fault-rate that exercises the
	// recovery paths end-to-end. Never enable in production.
	FaultRate float64
	// FaultSeed seeds the fault injection deterministically (per run:
	// FaultSeed + run index).
	FaultSeed int64

	// ClusterLeaseTTL is the coordinator's lease window: how long a
	// worker may go silent before it is declared dead and its runs are
	// reassigned (default 10s). Workers heartbeat at a third of it.
	ClusterLeaseTTL time.Duration
	// ClusterBatch caps the runs pushed to a worker per dispatch
	// (default 4). A worker holds at most one open batch, so this also
	// bounds how many runs a dying worker can strand for one lease TTL.
	ClusterBatch int

	// ChaosProfile, when non-empty, routes every cluster RPC this daemon
	// makes (batch pushes on a coordinator; join, heartbeat and result
	// posts on a worker) through a seeded fault-injecting transport —
	// the hotgauged -chaos-profile flag. The value is a chaos preset
	// name, "@file", or inline JSON (see chaos.ParseProfile). Dev/test
	// only: never enable in production.
	ChaosProfile string
	// ChaosSeed seeds the chaos transport's fault draws (default 1);
	// the same profile + seed replays the same faults.
	ChaosSeed int64
	// ChaosSelf names this endpoint in chaos partition schedules
	// (default "coordinator"; worker daemons pass their worker name).
	ChaosSelf string

	// DefaultSolver, when set, is folded into submitted specs that leave
	// solver unset — before hashing, deduplication and journaling, so the
	// result cache, the journal and cluster workers all see the resolved
	// spec rather than an ambient daemon setting. Must be a
	// thermal.NewSolver name ("explicit" or "adi"); empty
	// keeps the simulator's explicit default.
	DefaultSolver string

	// DefaultStack, when set, is folded like DefaultSolver into submitted
	// specs that leave both stack and layers unset: every run of the
	// daemon defaults to that stacked scenario. Must be a sim.StackPresets
	// name; empty keeps the single-die default.
	DefaultStack string

	// Surrogate, when set, enables predict-first triage: submitted specs
	// that leave surrogate unset are opted in (folded before hashing,
	// like DefaultSolver; an explicit false pins exact execution), and
	// each job's cache-missing surrogate runs are scored before
	// execution — only the frontier, low-confidence and audit-selected
	// runs simulate exactly, the rest resolve as predicted-only results.
	// One Triager spans the daemon's lifetime, so the audit MAE
	// accumulates across jobs. Typically a *surrogate.Model.
	Surrogate sim.Predictor
	// TriageBand / AuditFrac are the daemon defaults folded into specs
	// that leave them zero when Surrogate is set (0 = the sim package
	// defaults: a 0.1 guard band, a 0.1 audit fraction).
	TriageBand float64
	AuditFrac  float64
}

// Server is the campaign service: an http.Handler exposing the job API
// plus the queue, worker pool and result cache behind it. Create with
// New, serve with net/http, stop with Shutdown.
type Server struct {
	opts  Options
	reg   *obs.Registry
	cache *resultCache
	mux   *http.ServeMux

	queue chan *Job
	wg    sync.WaitGroup

	baseCtx   context.Context
	cancelAll context.CancelFunc

	// st is the durable backing store (nil without Options.DataDir);
	// storeOnce guards its close against Shutdown being called twice.
	st        *store.Store
	storeOnce sync.Once

	// coord is this daemon's cluster coordinator — always present, and
	// every job's misses run through it; with no live workers it is a
	// cluster of zero and runs execute on its local executor. cworker is
	// the worker half, set by JoinCluster (guarded by mu).
	coord   *cluster.Coordinator
	cworker *cluster.Worker
	// chaosT is the fault-injecting transport every cluster RPC rides
	// when Options.ChaosProfile is set (nil otherwise — zero cost).
	chaosT *chaos.Transport

	// triager applies Options.Surrogate's triage policy (nil when no
	// surrogate is configured). Daemon-lifetime, so surrogate/* metrics
	// and the audit MAE span every job this process serves.
	triager *sim.Triager
	// defaults is the overlay handleSubmit folds into every submitted
	// spec before hashing (sim.Spec.WithDefaults), built once from the
	// Options defaults.
	defaults ConfigSpec

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string          // submission order, for listing
	dedup  map[string]string // campaignKey → non-terminal job id
	closed bool
	seq    int

	queueDepth, inflight                                *obs.Gauge
	mSubmitted, mRejected                               *obs.Counter
	mCompleted, mFailed, mCancelled, mExecuted, mCached *obs.Counter
	mPredicted                                          *obs.Counter
	mTimeouts, mBodyRejected                            *obs.Counter
	mStoreErrors, mRecovered, mDeduped                  *obs.Counter
	mOrphanLeases                                       *obs.Counter

	// beforeRun, when non-nil, runs after a job transitions to running
	// and before its campaign starts — a test seam for holding a worker
	// in-flight deterministically. Returning an error cancels the job.
	beforeRun func(ctx context.Context, j *Job) error
	// wrapCfg, when non-nil, may rewrite a run's config just before
	// execution — the test seam the fault-injection e2e uses to plant
	// deterministic per-run faults (production injection goes through
	// Options.FaultRate instead). i is the run's index within the job.
	wrapCfg func(i int, cfg sim.Config) sim.Config
	// onPersist, when non-nil, observes every payload written to the
	// durable result store — the test seam that proves each run is
	// persisted once per node.
	onPersist func(hash string)
}

// New creates a Server and starts its worker pool. With Options.DataDir
// set it first opens the durable store and replays the journal: terminal
// jobs are restored read-only, interrupted jobs are requeued ahead of
// any new submission (the queue is widened to hold them all), and only
// then do the workers start. New fails on an unusable data directory or
// a bad fsync policy — a daemon that cannot persist should not pretend
// to.
func New(opts Options) (*Server, error) {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.DefaultSolver != "" {
		if _, err := thermal.NewSolver(opts.DefaultSolver, 0); err != nil {
			return nil, err
		}
	}
	if !sim.KnownStackPreset(opts.DefaultStack) {
		return nil, fmt.Errorf("serve: unknown default stack %q (have %v)", opts.DefaultStack, sim.StackPresets())
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:          opts,
		reg:           opts.Registry,
		cache:         newResultCache(opts.CacheBytes, opts.Registry),
		mux:           http.NewServeMux(),
		baseCtx:       ctx,
		cancelAll:     cancel,
		jobs:          map[string]*Job{},
		dedup:         map[string]string{},
		queueDepth:    opts.Registry.Gauge(MetricQueueDepth),
		inflight:      opts.Registry.Gauge(MetricInflightJobs),
		mSubmitted:    opts.Registry.Counter(MetricJobsSubmitted),
		mRejected:     opts.Registry.Counter(MetricJobsRejected),
		mCompleted:    opts.Registry.Counter(MetricJobsCompleted),
		mFailed:       opts.Registry.Counter(MetricJobsFailed),
		mCancelled:    opts.Registry.Counter(MetricJobsCancelled),
		mExecuted:     opts.Registry.Counter(MetricRunsExecuted),
		mCached:       opts.Registry.Counter(MetricRunsCached),
		mPredicted:    opts.Registry.Counter(MetricRunsPredicted),
		mTimeouts:     opts.Registry.Counter(MetricTimeouts),
		mBodyRejected: opts.Registry.Counter(MetricBodyRejected),
		mStoreErrors:  opts.Registry.Counter(MetricStoreErrors),
		mRecovered:    opts.Registry.Counter(MetricRecoveredJobs),
		mDeduped:      opts.Registry.Counter(MetricJobsDeduped),
		mOrphanLeases: opts.Registry.Counter(cluster.MetricOrphanLeases),
	}
	s.defaults = ConfigSpec{Solver: opts.DefaultSolver, Stack: opts.DefaultStack}
	if opts.Surrogate != nil {
		s.triager = sim.NewTriager(sim.TriageOptions{Predictor: opts.Surrogate}, opts.Registry)
		on := true
		s.defaults.Surrogate = &on
		s.defaults.TriageBand, s.defaults.AuditFrac = opts.TriageBand, opts.AuditFrac
	}
	if opts.ChaosProfile != "" {
		prof, err := chaos.ParseProfile(opts.ChaosProfile)
		if err != nil {
			cancel()
			return nil, err
		}
		if !prof.Zero() {
			seed := opts.ChaosSeed
			if seed == 0 {
				seed = 1
			}
			self := opts.ChaosSelf
			if self == "" {
				self = "coordinator"
			}
			s.chaosT = chaos.New(chaos.Options{
				Self:     self,
				Profile:  prof,
				Seed:     seed,
				Registry: opts.Registry,
			})
		}
	}
	s.coord = s.newCoordinator()
	s.routes()

	var requeue []*Job
	if opts.DataDir != "" {
		pol, err := store.ParseSyncPolicy(opts.Fsync)
		if err != nil {
			cancel()
			return nil, err
		}
		st, err := store.Open(store.Options{Dir: opts.DataDir, Sync: pol})
		if err != nil {
			cancel()
			return nil, err
		}
		s.st = st
		if requeue, err = s.recoverJournal(); err != nil {
			st.Close()
			cancel()
			return nil, fmt.Errorf("serve: journal replay: %w", err)
		}
	}
	qcap := opts.QueueSize
	if len(requeue) > qcap {
		qcap = len(requeue)
	}
	s.queue = make(chan *Job, qcap)
	for _, j := range requeue {
		s.queue <- j
	}
	s.queueDepth.Set(float64(len(s.queue)))

	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /jobs/{id}/results/{run}", s.handleRunResult)
	s.mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)

	// Cluster control plane: the coordinator half answers join,
	// heartbeat, result and status calls; the worker half (active only
	// after JoinCluster) accepts pushed batches.
	s.mux.HandleFunc("POST /cluster/join", s.coord.HandleJoin)
	s.mux.HandleFunc("POST /cluster/heartbeat", s.coord.HandleHeartbeat)
	s.mux.HandleFunc("POST /cluster/results", s.coord.HandleResults)
	s.mux.HandleFunc("GET /cluster/status", s.coord.HandleStatus)
	s.mux.HandleFunc("POST /cluster/batch", s.handleBatch)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Shutdown gracefully stops the server: new submissions are refused,
// queued jobs are cancelled, and in-flight jobs drain until ctx's
// deadline, after which they are cancelled too (a cancelled run aborts
// at its next step boundary). Shutdown returns nil if everything
// drained in time and ctx.Err() otherwise; either way, all workers have
// exited when it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, j := range s.jobs {
			if j.State() == JobQueued {
				j.Cancel()
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelAll()
		<-done
		err = ctx.Err()
	}
	// Cluster halves stop after the job workers drain (a draining job's
	// remote runs need the coordinator alive to gather), and the store
	// closes last so every final journal record — job and lease alike —
	// lands before the journal's closing sync.
	if w := s.ClusterWorker(); w != nil {
		w.Stop()
	}
	s.coord.Close()
	s.closeStore()
	return err
}

// closeStore flushes and closes the durable store exactly once.
func (s *Server) closeStore() {
	if s.st == nil {
		return
	}
	s.storeOnce.Do(func() {
		if err := s.st.Close(); err != nil {
			s.mStoreErrors.Inc()
		}
	})
}

// finishJob performs a job's terminal transition: the in-memory state
// machine first (idempotent — only the transition that wins counts and
// journals), then the journal record, then the dedup table entry is
// released so the next identical submission gets a fresh job.
func (s *Server) finishJob(j *Job, state JobState, errMsg string, counter *obs.Counter) {
	if j.finish(state, errMsg) {
		counter.Inc()
		s.journalRec(journalRecord{Type: recFinished, Job: j.ID, State: string(state), Error: errMsg})
	}
	if j.dedupKey != "" {
		s.mu.Lock()
		if s.dedup[j.dedupKey] == j.ID {
			delete(s.dedup, j.dedupKey)
		}
		s.mu.Unlock()
	}
}

// worker drains the job queue until Shutdown closes it. Jobs whose
// context was cancelled while queued fall through runJob's first check
// and are marked cancelled without simulating anything.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.queueDepth.Set(float64(len(s.queue)))
		s.inflight.Add(1)
		s.runJob(job)
		s.inflight.Add(-1)
	}
}

// errJobTimeout is the cancellation cause of a job that exceeded
// Options.JobTimeout: the deadline is a per-job failure, not a
// client cancel, so runJob lands it in JobFailed rather than
// JobCancelled.
var errJobTimeout = errors.New("serve: job exceeded its deadline")

// runJob executes one job: a cache pass first, then triage, then the
// misses through the coordinator (runJobRemote), with per-run results
// streamed into the job (and the cache) as they complete. Faults stay
// contained: a run that panics, diverges, retries out, or trips its
// per-run deadline fails alone (sim.RunCtx converts panics into per-run
// *PanicErrors), and the job-level deadline cuts the whole job at the
// next step boundary — the worker, and the daemon behind it, keep
// serving either way.
func (s *Server) runJob(j *Job) {
	if j.ctx.Err() != nil || j.State().terminal() {
		s.finishJob(j, JobCancelled, "cancelled while queued", s.mCancelled)
		return
	}
	j.start()
	s.journalRec(journalRecord{Type: recStarted, Job: j.ID})

	// The job deadline starts when a worker picks the job up, not at
	// submission: time spent queued is the server's backlog, not the
	// client's campaign.
	ctx := j.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(j.ctx, s.opts.JobTimeout, errJobTimeout)
		defer cancel()
	}
	if s.beforeRun != nil {
		if err := s.beforeRun(ctx, j); err != nil {
			s.finishJob(j, JobCancelled, err.Error(), s.mCancelled)
			return
		}
	}

	// The cache pass consults the in-memory LRU and, behind it, the
	// on-disk result store — which is how a requeued recovered job skips
	// every run that already completed before the crash.
	var missIdx []int
	for i, h := range j.hashes {
		if data, ok := s.lookupResult(h); ok {
			s.mCached.Inc()
			j.setRunCached(i, data)
			s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i, State: RunCached})
		} else {
			missIdx = append(missIdx, i)
		}
	}

	// Predict-first triage: surrogate-flagged cache misses are scored
	// before any execution. Runs the model confidently places clearly
	// below the hotspot threshold resolve as predicted-only results —
	// cached, persisted and journaled like any other payload (their
	// content hash includes the triage knobs, so they can never shadow an
	// exact result's address) — and only the rest execute. Decisions for
	// the exact runs are kept so their results can be audited against the
	// predictions.
	decisions := map[int]sim.TriageDecision{}
	if s.triager != nil && len(missIdx) > 0 {
		kept := missIdx[:0]
		for _, i := range missIdx {
			// Submission (or recovery) already proved the spec
			// materializes; a failure here leaves the run to execution,
			// which reports it on the run.
			cfg, err := j.Specs[i].Config()
			if err != nil || !cfg.Surrogate {
				kept = append(kept, i)
				continue
			}
			d := s.triager.Score(cfg)
			decisions[i] = d
			if d.ExactRun {
				kept = append(kept, i)
				continue
			}
			res := s.triager.PredictedResult(cfg, d)
			data, merr := json.Marshal(newRunView(j.Specs[i], j.hashes[i], res))
			if merr != nil {
				kept = append(kept, i) // unrepresentable prediction: run exactly
				continue
			}
			s.cache.Put(j.hashes[i], data)
			s.persistResult(j.hashes[i], data)
			s.mPredicted.Inc()
			j.setRunPredicted(i, data)
			s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i, State: RunPredicted})
		}
		missIdx = kept
	}

	// Every miss runs through the coordinator: across live cluster
	// workers, or — with none, as on a standalone daemon — on this
	// node's local executor. A worker dying mid-fan-out is handled there
	// too: the coordinator reassigns its runs, and runs stranded with no
	// survivors execute locally.
	if len(missIdx) > 0 {
		s.runJobRemote(ctx, j, missIdx, decisions)
	}

	switch {
	case errors.Is(context.Cause(ctx), errJobTimeout):
		s.mTimeouts.Inc()
		s.finishJob(j, JobFailed, fmt.Sprintf("job exceeded its %s deadline", s.opts.JobTimeout), s.mFailed)
	case j.ctx.Err() != nil:
		s.finishJob(j, JobCancelled, context.Cause(j.ctx).Error(), s.mCancelled)
	case j.failedCount() > 0:
		s.finishJob(j, JobFailed, fmt.Sprintf("%d of %d runs failed", j.failedCount(), len(j.Specs)), s.mFailed)
	default:
		s.finishJob(j, JobDone, "", s.mCompleted)
	}
}

// flakySolver wraps a run's solver for Options.FaultRate dev-mode
// injection: the configured rate is split across random panics,
// transient errors and short stalls, seeded per run so a given
// (seed, run) pair always misbehaves the same way.
func (s *Server) flakySolver(inner thermal.Solver, run int64) thermal.Solver {
	r := s.opts.FaultRate
	return &fault.FlakySolver{
		Inner:     inner,
		Seed:      s.opts.FaultSeed + run,
		PanicRate: r / 3,
		ErrorRate: r / 3,
		StallRate: r / 3,
		Stall:     time.Millisecond,
	}
}

// ---- handlers ----

type submitRequest struct {
	Configs []ConfigSpec `json:"configs"`
}

type submitResponse struct {
	ID     string   `json:"id"`
	Total  int      `json:"total"`
	Hashes []string `json:"config_hashes"`
	Status string   `json:"status_url"`
	Events string   `json:"events_url"`
	// Deduplicated marks a submission answered with an existing
	// non-terminal job running the identical campaign.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Bound the submission body: an unbounded decode would let one
	// client exhaust memory with a single request. MaxBytesReader also
	// closes the connection on overflow, so the write can't stall.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.mBodyRejected.Inc()
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Configs) == 0 {
		httpError(w, http.StatusBadRequest, "empty campaign: configs is required")
		return
	}
	// Fold the daemon's defaults (solver, stack, surrogate triage) into
	// each spec before hashing: the stored spec, the content address and
	// whatever a cluster worker re-materializes must all agree on how the
	// run resolves, rather than depend on an ambient daemon setting.
	for i := range req.Configs {
		req.Configs[i] = req.Configs[i].WithDefaults(s.defaults)
	}
	hashes := make([]string, len(req.Configs))
	for i, spec := range req.Configs {
		cfg, err := spec.Config()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %v", i, err))
			return
		}
		h, err := cfg.Hash()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %v", i, err))
			return
		}
		hashes[i] = h
	}

	key := campaignKey(hashes)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// An identical campaign already queued or in flight answers with the
	// existing job id instead of doubling the work: every run would hash
	// to the same results anyway.
	if prev, ok := s.dedup[key]; ok {
		if j := s.jobs[prev]; j != nil && !j.State().terminal() {
			s.mu.Unlock()
			s.mDeduped.Inc()
			writeJSON(w, http.StatusOK, submitResponse{
				ID:           prev,
				Total:        len(hashes),
				Hashes:       hashes,
				Status:       "/jobs/" + prev,
				Events:       "/jobs/" + prev + "/events",
				Deduplicated: true,
			})
			return
		}
		delete(s.dedup, key) // stale entry: job finished without cleanup
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	job := newJob(s.baseCtx, id, req.Configs, hashes)
	job.dedupKey = key
	select {
	case s.queue <- job:
		s.jobs[id] = job
		s.order = append(s.order, id)
		s.dedup[key] = id
		s.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
	default:
		s.seq-- // id not handed out
		s.mu.Unlock()
		job.cancel()
		s.mRejected.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusTooManyRequests, "job queue is full")
		return
	}
	s.mSubmitted.Inc()
	s.journalRec(journalRecord{Type: recSubmitted, Job: id, Specs: req.Configs, Hashes: hashes})
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:     id,
		Total:  len(hashes),
		Hashes: hashes,
		Status: "/jobs/" + id,
		Events: "/jobs/" + id + "/events",
	})
}

// retryAfter estimates how long until a queue slot frees: the mean
// campaign wall time observed so far, clamped to [1s, 60s].
func (s *Server) retryAfter() string {
	snap := s.reg.Snapshot()
	t := snap.Timers[sim.MetricRunTime]
	secs := 1.0
	if t.Count > 0 {
		secs = math.Ceil(t.MeanSeconds)
	}
	return strconv.Itoa(int(math.Min(math.Max(secs, 1), 60)))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// job resolves the {id} path value, writing a 404 on miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job "+id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	if j.State() == JobQueued {
		// The queue will eventually pop it, but reflect the decision
		// immediately; runJob's finish is idempotent and counts once.
		s.finishJob(j, JobCancelled, "cancelled by client", s.mCancelled)
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson" ||
		r.Header.Get("Accept") == "application/x-ndjson"
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
	}
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		evs, changed, terminal := j.eventsSince(next)
		next += len(evs)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if ndjson {
				fmt.Fprintf(w, "%s\n", data)
			} else {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			}
		}
		fl.Flush()
		// eventsSince reads the history and the terminal flag under one
		// lock, so a terminal report means evs already held the final
		// event: nothing will ever be published again.
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

type resultsResponse struct {
	ID    string           `json:"id"`
	State JobState         `json:"state"`
	Runs  []resultEnvelope `json:"runs"`
}

type resultEnvelope struct {
	RunStatus
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	st := j.Status()
	out := resultsResponse{ID: j.ID, State: st.State, Runs: make([]resultEnvelope, len(st.Runs))}
	for i, rs := range st.Runs {
		out.Runs[i] = resultEnvelope{RunStatus: rs, Result: json.RawMessage(s.resultFor(j, i))}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRunResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	i, err := strconv.Atoi(r.PathValue("run"))
	if err != nil || i < 0 || i >= len(j.Specs) {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	data := s.resultFor(j, i)
	if data == nil {
		httpError(w, http.StatusNotFound, "result not available (run pending, failed or skipped)")
		return
	}
	// The cached bytes are served verbatim: a repeat submission's
	// response is byte-identical to the original.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	st := j.Status()
	rows := make([]report.RunSummary, len(st.Runs))
	for i, rs := range st.Runs {
		row := report.RunSummary{
			Label:  fmt.Sprintf("%d:%s", i, j.Specs[i].Workload),
			Node:   nodeName(j.Specs[i].Node),
			Status: rs.State,
			TUHMs:  -1,
		}
		if data := s.resultFor(j, i); data != nil {
			var v RunView
			if err := json.Unmarshal(data, &v); err == nil {
				row.Steps = v.StepsRun
				row.PeakTemp = v.PeakTempC
				row.PeakMLTD = v.PeakMLTDC
				row.PeakSeverity = v.PeakSeverity
				if v.TUHSeconds != nil {
					row.TUHMs = *v.TUHSeconds * 1e3
				}
				if v.Predicted {
					row.Predicted = true
					row.PeakSeverity = v.PredictedSeverity
					if v.PredictedTUHSeconds != nil {
						row.TUHMs = *v.PredictedTUHSeconds * 1e3
					}
				}
				// Stacked runs break the stack-wide row down per die.
				for d, label := range v.DieLabels {
					die := report.DieSummary{Label: label}
					if d < len(v.DieMaxTempC) {
						die.PeakTemp = seriesMax(v.DieMaxTempC[d])
					}
					if d < len(v.DieSeverity) {
						die.PeakSeverity = seriesMax(v.DieSeverity[d])
					}
					row.Dies = append(row.Dies, die)
				}
			}
		}
		rows[i] = row
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "job %s (%s): hotspot characterization, Section-4 style\n\n", j.ID, st.State)
	fmt.Fprint(w, report.CampaignReport(rows))
	if st.Predicted > 0 || s.triager != nil {
		exact := st.Completed - st.Predicted - st.Failed
		fmt.Fprintf(w, "\nsurrogate: %d predicted-only (~), %d exact", st.Predicted, exact)
		if mae, n := j.auditStats(); n > 0 {
			fmt.Fprintf(w, "; audit %d runs, predicted-vs-exact severity MAE %.4f", n, mae)
		}
		fmt.Fprintln(w)
	}
}

func nodeName(n int) string {
	if n == 0 {
		n = 14
	}
	return fmt.Sprintf("%dnm", n)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.reg.WriteJSON(w)
}

type healthResponse struct {
	Status       string `json:"status"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_capacity"`
	InflightJobs int    `json:"inflight_jobs"`
	Jobs         int    `json:"jobs"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
	// Store is "ok" or "degraded" when durability is enabled, empty
	// otherwise. Degraded means the journal's last append failed: jobs
	// still execute, but their records may not survive a crash until an
	// append succeeds again.
	Store string `json:"store,omitempty"`
	// Cluster reports this daemon's cluster role and scheduling load:
	// the worker view when it joined a coordinator, its own coordinator
	// view otherwise (a single node is a coordinator with zero workers).
	Cluster cluster.Health `json:"cluster"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	njobs := len(s.jobs)
	s.mu.Unlock()
	h := healthResponse{
		Status:       "ok",
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		InflightJobs: int(s.inflight.Value()),
		Jobs:         njobs,
		CacheEntries: s.cache.Len(),
		CacheBytes:   s.cache.Bytes(),
		Cluster:      s.clusterHealth(),
	}
	code := http.StatusOK
	if s.st != nil {
		h.Store = "ok"
		if s.st.Journal.Err() != nil {
			h.Store = "degraded"
			h.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	if closed {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
