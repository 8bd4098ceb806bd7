package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"hotgauge/internal/sim"
	"hotgauge/internal/store"
)

// Journal record types. The journal is the crash-safe job ledger: every
// lifecycle transition (submitted / started / per-run terminal state /
// finished, including cancellation) is appended as one JSON record, and
// startup replay reconstructs the job table from it. Result payloads are
// NOT journaled — they live in the content-addressed result store, and a
// run's record is appended only after its payload is durably stored, so
// replay never sees a completed run without its bytes.
const (
	recSubmitted = "submitted"
	recStarted   = "started"
	recRun       = "run"
	recFinished  = "finished" // terminal: done, failed or cancelled
)

// journalRecord is the wire form of one journal entry. Submitted records
// carry the full spec list (the job's identity); run records carry only
// the run index and terminal state — the result bytes are addressed by
// the config hash already present in the submitted record.
type journalRecord struct {
	Type   string       `json:"t"`
	Job    string       `json:"job"`
	Specs  []ConfigSpec `json:"specs,omitempty"`
	Hashes []string     `json:"hashes,omitempty"`
	Run    int          `json:"run,omitempty"`
	State  string       `json:"state,omitempty"`
	Error  string       `json:"err,omitempty"`
}

// journalRec appends one record to the journal, if durability is
// enabled. Append failures are counted in serve/store_errors and
// surface through /healthz (the journal's sticky error degrades the
// daemon) — the job itself proceeds, trading durability for
// availability.
func (s *Server) journalRec(rec journalRecord) {
	if s.st == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = s.st.Journal.Append(b)
	}
	if err != nil {
		s.mStoreErrors.Inc()
	}
}

// campaignKey content-addresses a whole campaign: the hash of its
// ordered config hashes. Two submissions with the same key would execute
// the same runs in the same order, which is what lets the server
// deduplicate an identical in-flight campaign to the existing job id.
func campaignKey(hashes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(hashes, "\n")))
	return hex.EncodeToString(sum[:])
}

// idSeq extracts the numeric suffix of a job id ("job-000042" → 42),
// 0 for foreign ids. Recovery seeds the id sequence past the journal's
// maximum so restarted daemons never reissue an id.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// replayJob accumulates one job's journal records during replay.
// Started records need no handling here: queued and in-flight jobs are
// requeued identically, so only submitted/run/finished carry state.
type replayJob struct {
	specs  []ConfigSpec
	hashes []string
	runs   []RunStatus
	final  JobState // zero while non-terminal
	errMsg string
}

// recoverJournal replays the journal into the job table: terminal jobs
// are restored read-only (results rehydrate lazily from the result
// store), jobs that were queued or in-flight at the crash are rebuilt
// and returned for requeueing (their already-persisted runs will be
// served from the result store by the cache pass, so completed work is
// neither lost nor repeated), and the journal is compacted to the
// minimal record set that reproduces this state. Garbled or unknown
// records are skipped — recovery never fails on a bad record, only on
// I/O errors.
func (s *Server) recoverJournal() (requeue []*Job, err error) {
	jobs := map[string]*replayJob{}
	var order []string
	// leases tracks lease-granted records not yet cleared by a terminal
	// run record or an expiry: after replay, the survivors belonging to
	// requeued jobs are the runs a crashed coordinator had out on
	// workers. They cost a re-dispatch, never a lost result, and are
	// counted in cluster/orphan_leases for the operator.
	leases := map[string]string{} // "job/run" → job id
	err = s.st.Journal.Replay(func(payload []byte) error {
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil || rec.Job == "" {
			return nil
		}
		leaseKey := fmt.Sprintf("%s/%d", rec.Job, rec.Run)
		switch rec.Type {
		case store.RecLeaseGranted:
			leases[leaseKey] = rec.Job
			return nil
		case store.RecLeaseExpired:
			delete(leases, leaseKey)
			return nil
		}
		switch rec.Type {
		case recSubmitted:
			if _, dup := jobs[rec.Job]; dup || len(rec.Specs) == 0 || len(rec.Specs) != len(rec.Hashes) {
				return nil
			}
			rj := &replayJob{specs: rec.Specs, hashes: rec.Hashes, runs: make([]RunStatus, len(rec.Specs))}
			for i := range rj.runs {
				rj.runs[i] = RunStatus{State: RunPending, ConfigHash: rec.Hashes[i]}
			}
			jobs[rec.Job] = rj
			order = append(order, rec.Job)
		case recRun:
			rj := jobs[rec.Job]
			if rj == nil || rec.Run < 0 || rec.Run >= len(rj.runs) {
				return nil
			}
			rj.runs[rec.Run].State = rec.State
			rj.runs[rec.Run].Error = rec.Error
			delete(leases, leaseKey) // the run reached a terminal state
		case recFinished:
			if rj := jobs[rec.Job]; rj != nil {
				rj.final = JobState(rec.State)
				rj.errMsg = rec.Error
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var compacted [][]byte
	maxSeq := 0
	addRec := func(rec journalRecord) {
		if b, err := json.Marshal(rec); err == nil {
			compacted = append(compacted, b)
		}
	}
	for _, id := range order {
		rj := jobs[id]
		if n := idSeq(id); n > maxSeq {
			maxSeq = n
		}
		addRec(journalRecord{Type: recSubmitted, Job: id, Specs: rj.specs, Hashes: rj.hashes})
		s.mRecovered.Inc()

		if rj.final.terminal() {
			j := restoreJob(s.baseCtx, id, rj.specs, rj.hashes, rj.runs, rj.final, rj.errMsg)
			s.jobs[id] = j
			s.order = append(s.order, id)
			for i, rs := range j.Status().Runs {
				if rs.State != RunPending {
					addRec(journalRecord{Type: recRun, Job: id, Run: i, State: rs.State, Error: rs.Error})
				}
			}
			addRec(journalRecord{Type: recFinished, Job: id, State: string(rj.final), Error: rj.errMsg})
			continue
		}

		// Queued or in-flight at the crash: requeue from the top. The
		// cache pass serves its already-persisted runs from the result
		// store, so only genuinely unfinished work re-executes.
		bad := ""
		for i, spec := range rj.specs {
			if _, cerr := spec.Config(); cerr != nil {
				bad = fmt.Sprintf("run %d no longer materializes after restart: %v", i, cerr)
				break
			}
		}
		if bad != "" {
			// The daemon that accepted this spec could run it; this one
			// cannot (e.g. a renamed workload). Surface a failed job
			// rather than silently dropping the id.
			j := restoreJob(s.baseCtx, id, rj.specs, rj.hashes, rj.runs, JobFailed, bad)
			s.jobs[id] = j
			s.order = append(s.order, id)
			addRec(journalRecord{Type: recFinished, Job: id, State: string(JobFailed), Error: bad})
			continue
		}
		j := newJob(s.baseCtx, id, rj.specs, rj.hashes)
		j.recovered = true
		j.dedupKey = campaignKey(rj.hashes)
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.dedup[j.dedupKey] = id
		requeue = append(requeue, j)
	}
	if len(leases) > 0 {
		requeued := map[string]bool{}
		for _, j := range requeue {
			requeued[j.ID] = true
		}
		orphans := 0
		for _, jobID := range leases {
			if requeued[jobID] {
				orphans++
			}
		}
		s.mOrphanLeases.Add(int64(orphans))
	}
	if s.seq < maxSeq {
		s.seq = maxSeq
	}
	if cerr := s.st.Journal.Compact(compacted); cerr != nil {
		s.mStoreErrors.Inc()
	}
	return requeue, nil
}

// lookupResult resolves a config hash to its result payload: the
// in-memory LRU first, then the on-disk result store, repopulating the
// LRU on a disk hit so the bytes keep being served verbatim.
func (s *Server) lookupResult(hash string) ([]byte, bool) {
	if data, ok := s.cache.Get(hash); ok {
		return data, true
	}
	if s.st == nil {
		return nil, false
	}
	data, ok, err := s.st.Results.Get(hash)
	if err != nil {
		s.mStoreErrors.Inc()
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.cache.Put(hash, data)
	return data, true
}

// persistResult durably stores a freshly simulated result payload before
// its journal record is appended (write ordering is what guarantees
// replay never claims a result it does not have).
func (s *Server) persistResult(hash string, data []byte) {
	if s.st == nil {
		return
	}
	if s.onPersist != nil {
		s.onPersist(hash)
	}
	if err := s.st.Results.Put(hash, data); err != nil {
		s.mStoreErrors.Inc()
	}
}

// resultFor returns run i's payload, rehydrating restored jobs from the
// result store on first access.
func (s *Server) resultFor(j *Job, i int) []byte {
	if data := j.result(i); data != nil {
		return data
	}
	rs, ok := j.run(i)
	if !ok || (rs.State != RunDone && rs.State != RunCached && rs.State != RunPredicted) {
		return nil
	}
	data, ok := s.lookupResult(rs.ConfigHash)
	if !ok {
		return nil
	}
	j.restoreResult(i, data)
	return data
}

// checkpointerFor wires a file-backed checkpoint seam into an executed
// run when durability and checkpointing are both enabled. Configs that
// checkpointing cannot represent (controller steering, per-step cell
// deltas, field frames — see Config.Checkpoint) simply run without one:
// resumability is best-effort per run, never a reason to fail it.
func (s *Server) checkpointerFor(cfg *sim.Config, hash string) {
	if s.st == nil || s.opts.CheckpointEvery <= 0 {
		return
	}
	if cfg.Controller != nil || cfg.Record.CellDeltas || cfg.Record.FieldEvery > 0 {
		return
	}
	cfg.Checkpoint = s.st.Checkpointer(hash)
	cfg.CheckpointEvery = s.opts.CheckpointEvery
}
