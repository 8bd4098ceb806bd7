package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"hotgauge/internal/cluster"
	"hotgauge/internal/sim"
	"hotgauge/internal/store"
)

// newCoordinator builds the server's cluster coordinator. Every daemon
// gets one, and every job's cache misses run through it: a daemon with
// no live workers is a cluster of zero, its runs executing through the
// coordinator's local executor (executeRun), so turning a single node
// into a coordinator is nothing more than pointing workers at it. With
// a chaos profile configured, batch pushes ride the fault-injecting
// transport, and every joining worker's name and address are taught to
// it so partition schedules written against worker names resolve their
// dynamically assigned ports.
func (s *Server) newCoordinator() *cluster.Coordinator {
	opts := cluster.CoordinatorOptions{
		LeaseTTL:     s.opts.ClusterLeaseTTL,
		Batch:        s.opts.ClusterBatch,
		Registry:     s.reg,
		OnLease:      s.journalLease,
		LocalExec:    s.executeRun,
		LocalWorkers: s.opts.RunWorkers,
		RetrySeed:    s.opts.ChaosSeed,
	}
	if s.chaosT != nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second, Transport: s.chaosT}
		opts.OnJoin = s.chaosT.AddPeer
	}
	return cluster.NewCoordinator(opts)
}

// journalLease appends a lease transition to the journal (when
// durability is on) so a restarted coordinator can count the runs that
// were out on workers at the crash. Lease records ride the same WAL as
// job records; compaction drops them because recovery requeues every
// non-terminal run anyway.
func (s *Server) journalLease(ev cluster.LeaseEvent) {
	if s.st == nil {
		return
	}
	typ := store.RecLeaseGranted
	if ev.Kind == cluster.LeaseExpired {
		typ = store.RecLeaseExpired
	}
	b, err := store.LeaseRecord{
		Type:          typ,
		Job:           ev.Job,
		Run:           ev.Run,
		Hash:          ev.Hash,
		Worker:        ev.Worker,
		Epoch:         ev.Epoch,
		ExpiresUnixMS: ev.Expires.UnixMilli(),
	}.Marshal()
	if err == nil {
		err = s.st.Journal.Append(b)
	}
	if err != nil {
		s.mStoreErrors.Inc()
	}
}

// JoinCluster turns this daemon into a worker of the given coordinator:
// it registers under name (advertising selfURL as its dialable base
// URL), starts heartbeating, and begins accepting pushed batches on
// POST /cluster/batch. Call it after the daemon's listener is up —
// the coordinator may dial back immediately. The daemon keeps serving
// its own job API; cluster work shares its executor, cache and store.
func (s *Server) JoinCluster(coordinatorURL, name, selfURL string) error {
	wopts := cluster.WorkerOptions{
		Name:        name,
		Coordinator: coordinatorURL,
		SelfURL:     selfURL,
		Exec:        s.executeWorkerRun,
		Registry:    s.reg,
		Concurrency: s.opts.RunWorkers,
		RetrySeed:   s.opts.ChaosSeed,
	}
	if s.chaosT != nil {
		// The worker's control-plane calls ride the chaos transport too;
		// "coordinator" is the name partition schedules use for the far
		// end of every worker's RPCs.
		s.chaosT.AddPeer("coordinator", coordinatorURL)
		wopts.Client = &http.Client{Timeout: 10 * time.Second, Transport: s.chaosT}
	}
	w, err := cluster.NewWorker(wopts)
	if err != nil {
		return err
	}
	if err := w.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	s.cworker = w
	s.mu.Unlock()
	return nil
}

// ClusterWorker returns the daemon's worker half, nil unless JoinCluster
// succeeded. Tests use it to kill a worker mid-campaign.
func (s *Server) ClusterWorker() *cluster.Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cworker
}

// Coordinator returns the daemon's coordinator (never nil after New).
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// clusterHealth is the /healthz cluster block: the worker view when
// this daemon joined a coordinator, its own coordinator view otherwise.
func (s *Server) clusterHealth() cluster.Health {
	if w := s.ClusterWorker(); w != nil {
		return w.Health()
	}
	return s.coord.Health()
}

// handleBatch is POST /cluster/batch: the worker half's run intake. A
// daemon that never joined a cluster refuses batches — only a worker
// executes on a coordinator's behalf.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	cw := s.ClusterWorker()
	if cw == nil {
		httpError(w, http.StatusServiceUnavailable, "this daemon is not a cluster worker (start it with -join)")
		return
	}
	cw.HandleBatch(w, r)
}

// executeRun is the daemon's only simulate path: the coordinator's
// local executor, and the core of the worker half's executor. It
// re-materializes the run from its wire spec, checks the content
// address, answers from the cache or result store when it can, and
// otherwise runs the fully wrapped simulation — checkpointer, fault
// injection, per-run timeout, retry (a diverging run retries on ADI) —
// returning the marshaled payload. Storing the payload and counting a
// per-run timeout are left to the caller: the coordinator's gather on
// its own node, executeWorkerRun on a worker.
func (s *Server) executeRun(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
	var spec ConfigSpec
	if err := json.Unmarshal(run.Spec, &spec); err != nil {
		return nil, fmt.Errorf("serve: undecodable run spec: %w", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, fmt.Errorf("serve: run spec does not materialize here: %w", err)
	}
	h, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	if h != run.Hash {
		return nil, fmt.Errorf("serve: config hash mismatch: coordinator sent %s, this daemon computes %s (version skew?)", run.Hash, h)
	}
	if data, ok := s.lookupResult(h); ok {
		s.mCached.Inc()
		return data, nil
	}

	s.checkpointerFor(&cfg, h)
	if s.opts.FaultRate > 0 {
		cfg.Solver = s.flakySolver(cfg.Solver, int64(run.Index))
	}
	if s.wrapCfg != nil {
		cfg = s.wrapCfg(run.Index, cfg)
	}
	cfg.Obs = s.reg
	if cfg.MaxWallTime <= 0 {
		cfg.MaxWallTime = s.opts.RunTimeout
	}
	res, err := sim.RunWithRetry(ctx, cfg, sim.RetryPolicy{MaxAttempts: s.opts.Retries + 1})
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(newRunView(spec, h, res))
	if err != nil {
		return nil, err
	}
	s.mExecuted.Inc()
	return payload, nil
}

// executeWorkerRun is the worker half's executor: executeRun, then the
// worker's own bookkeeping — a per-run timeout counts in serve/timeouts
// here, and the payload is cached and persisted before it is returned,
// so the run's bytes are durable on this node before the coordinator
// resolves it.
func (s *Server) executeWorkerRun(ctx context.Context, run sim.RemoteRun) ([]byte, error) {
	payload, err := s.executeRun(ctx, run)
	if err != nil {
		var rte *sim.RunTimeoutError
		if errors.As(err, &rte) {
			s.mTimeouts.Inc()
		}
		return nil, err
	}
	s.cache.Put(run.Hash, payload)
	s.persistResult(run.Hash, payload)
	return payload, nil
}

// runJobRemote executes a job's cache-missing runs through the
// coordinator — fanned out across live workers, or on this node's local
// executor when there are none — and gathers their results into the
// job: payloads are cached and persisted to this node's content-addressed
// store, run records journal after their bytes are durable, and per-run
// failures land on their run alone. Runs cut short by cancellation or
// the job deadline are "skipped" (they said nothing about their config);
// a per-run timeout, local or reported by a worker, counts once in this
// node's serve/timeouts. decisions carries the triage decisions of the
// runs that reached exact execution; audit-selected results are scored
// here from their payloads (workers need not hold the model).
func (s *Server) runJobRemote(ctx context.Context, j *Job, missIdx []int, decisions map[int]sim.TriageDecision) {
	runs := make([]sim.RemoteRun, len(missIdx))
	for k, i := range missIdx {
		specBytes, _ := json.Marshal(j.Specs[i])
		runs[k] = sim.RemoteRun{Job: j.ID, Index: i, Hash: j.hashes[i], Spec: specBytes}
		// A spec that fails to marshal leaves Spec empty; Execute rejects
		// that run through its validator and the failure lands below.
	}
	_ = s.coord.Execute(ctx, runs, func(k int, payload []byte, err error) {
		i := missIdx[k]
		if err != nil {
			var rte *sim.RunTimeoutError
			var rre *sim.RemoteRunError
			timedOut := errors.As(err, &rte) || (errors.As(err, &rre) && rre.TimedOut)
			if timedOut {
				s.mTimeouts.Inc()
			}
			skipped := !timedOut && (errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, errJobTimeout))
			j.setRunFailed(i, err, skipped)
			if !skipped {
				s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i,
					State: RunFailed, Error: err.Error()})
			}
			return
		}
		if d, ok := decisions[i]; ok && d.Audit && d.Prediction != nil && s.triager != nil {
			var v RunView
			if json.Unmarshal(payload, &v) == nil && len(v.Severity) > 0 {
				absErr := math.Abs(d.Prediction.Severity - seriesMax(v.Severity))
				s.triager.RecordAuditError(absErr)
				j.addAudit(absErr)
			}
		}
		// A remote worker already persisted the payload under its own
		// store; persist under ours too — this node's store is the one
		// result queries hit. Write ordering matters: the payload is
		// durably stored before the journal claims the run is done, so
		// replay can never promise bytes it lost.
		s.cache.Put(j.hashes[i], payload)
		s.persistResult(j.hashes[i], payload)
		j.setRunDone(i, payload)
		s.journalRec(journalRecord{Type: recRun, Job: j.ID, Run: i, State: RunDone})
	})
}
