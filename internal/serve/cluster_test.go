package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"hotgauge/internal/cluster"
	"hotgauge/internal/fault"
	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/thermal"
)

// newClusterNode builds one daemon (coordinator or worker — every
// daemon is both halves) on an httptest listener.
func newClusterNode(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.ClusterLeaseTTL == 0 {
		opts.ClusterLeaseTTL = 500 * time.Millisecond
	}
	if opts.ClusterBatch == 0 {
		opts.ClusterBatch = 2
	}
	return newTestServer(t, opts)
}

// joinWorkers attaches n fresh worker daemons to the coordinator and
// returns them. Each worker is a full Server — own cache, registry and
// executor — joined over real HTTP.
func joinWorkers(t *testing.T, coordTS *httptest.Server, n int) []*Server {
	t.Helper()
	workers := make([]*Server, n)
	for i := 0; i < n; i++ {
		ws, wts := newClusterNode(t, Options{})
		if err := ws.JoinCluster(coordTS.URL, fmt.Sprintf("worker-%d", i), wts.URL); err != nil {
			t.Fatalf("worker %d join: %v", i, err)
		}
		workers[i] = ws
	}
	return workers
}

// fetchRun GETs one run's result bytes from a daemon.
func fetchRun(t *testing.T, ts *httptest.Server, job string, run int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/results/%d", ts.URL, job, run))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s/%d: status %d: %s", job, run, resp.StatusCode, body)
	}
	return body
}

// clusterSpecs is the shared campaign of the cluster tests: every run
// gets a distinct (node, steps) pair, so every run has a distinct
// config hash.
func clusterSpecs(n int) []ConfigSpec {
	nodes := []int{7, 10, 14}
	specs := make([]ConfigSpec, n)
	for i := range specs {
		specs[i] = tinySpec(nodes[i%len(nodes)], 2+i/len(nodes))
	}
	return specs
}

// stallRuns plants a sleep-only FlakySolver on a worker daemon: every
// run it executes pauses before its first step, but steps untouched, so
// result bytes stay identical to an unstalled control.
func stallRuns(ws *Server, d time.Duration) {
	ws.wrapCfg = func(i int, cfg sim.Config) sim.Config {
		inner := cfg.Solver
		if inner == nil {
			inner = &thermal.Explicit{}
		}
		cfg.Solver = &fault.FlakySolver{Inner: inner, StallAt: 1, Stall: d}
		return cfg
	}
}

// TestClusterFanoutAndDedup drives a coordinator plus two workers
// through a real campaign over real HTTP: the job must complete with
// every run's bytes identical to a single-node control server, the
// simulation work must land on the workers (the coordinator simulates
// nothing itself), and resubmitting the identical campaign after the
// first finishes must be served wholly from the coordinator's
// content-addressed store — cluster-wide dedup, no re-dispatch.
func TestClusterFanoutAndDedup(t *testing.T) {
	specs := clusterSpecs(6)

	// Control: the same campaign on an ordinary single-node server.
	_, controlTS := newTestServer(t, Options{})
	control := submit(t, controlTS, specs...)
	waitState(t, controlTS, control.ID, JobDone)

	coord, coordTS := newClusterNode(t, Options{})
	workers := joinWorkers(t, coordTS, 2)
	waitFor(t, func() bool { return coord.Coordinator().AliveWorkers() == 2 }, "workers to join")

	sub := submit(t, coordTS, specs...)
	waitState(t, coordTS, sub.ID, JobDone)

	for i := range specs {
		got := fetchRun(t, coordTS, sub.ID, i)
		want := fetchRun(t, controlTS, control.ID, i)
		if string(got) != string(want) {
			t.Fatalf("run %d: cluster bytes differ from single-node control\n got: %s\nwant: %s", i, got, want)
		}
	}

	// The coordinator must have fanned out, not simulated locally.
	snap := coord.Registry().Snapshot()
	if got := int(snap.Counters[MetricRunsExecuted]); got != 0 {
		t.Errorf("coordinator executed %d runs itself, want 0", got)
	}
	if got := int(snap.Counters[cluster.MetricRunsDispatched]); got < len(specs) {
		t.Errorf("runs_dispatched = %d, want >= %d", got, len(specs))
	}
	executed := 0
	for _, ws := range workers {
		executed += int(ws.Registry().Snapshot().Counters[MetricRunsExecuted])
	}
	if executed != len(specs) {
		t.Errorf("workers executed %d runs, want exactly %d (exactly-once)", executed, len(specs))
	}

	// Cluster-wide dedup: the first job is terminal, so resubmitting the
	// identical campaign opens a new job — and every one of its runs must
	// be answered from the coordinator's result store without touching
	// the cluster again.
	resub := submit(t, coordTS, specs...)
	if resub.ID == sub.ID {
		t.Fatalf("finished job id reused for resubmission")
	}
	waitState(t, coordTS, resub.ID, JobDone)
	snap2 := coord.Registry().Snapshot()
	if got, before := int(snap2.Counters[cluster.MetricRunsDispatched]), int(snap.Counters[cluster.MetricRunsDispatched]); got != before {
		t.Errorf("resubmission dispatched %d more runs, want 0", got-before)
	}
	if got := int(snap2.Counters[MetricRunsCached]); got < len(specs) {
		t.Errorf("runs_cached = %d after resubmission, want >= %d", got, len(specs))
	}
	after := 0
	for _, ws := range workers {
		after += int(ws.Registry().Snapshot().Counters[MetricRunsExecuted])
	}
	if after != executed {
		t.Errorf("workers executed %d more runs on resubmission, want 0", after-executed)
	}
	for i := range specs {
		got := fetchRun(t, coordTS, resub.ID, i)
		want := fetchRun(t, controlTS, control.ID, i)
		if string(got) != string(want) {
			t.Fatalf("run %d: deduplicated bytes differ from control", i)
		}
	}
}

// TestStandaloneRunsThroughCoordinator: a standalone durable daemon is a
// coordinator with zero workers, so every cache miss executes through
// its local executor — cluster/local_runs and serve/runs_executed agree
// run for run, nothing is dispatched, and each payload is written to the
// result store exactly once.
func TestStandaloneRunsThroughCoordinator(t *testing.T) {
	specs := clusterSpecs(5)
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{DataDir: t.TempDir(), Registry: reg, RunWorkers: 2})
	var mu sync.Mutex
	persisted := map[string]int{}
	s.onPersist = func(hash string) {
		mu.Lock()
		persisted[hash]++
		mu.Unlock()
	}

	sub := submit(t, ts, specs...)
	waitState(t, ts, sub.ID, JobDone)

	snap := reg.Snapshot()
	for _, m := range []string{cluster.MetricLocalRuns, MetricRunsExecuted} {
		if got := int(snap.Counters[m]); got != len(specs) {
			t.Errorf("%s = %d, want %d", m, got, len(specs))
		}
	}
	if got := snap.Counters[cluster.MetricRunsDispatched]; got != 0 {
		t.Errorf("runs_dispatched = %d on a standalone daemon, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != len(specs) {
		t.Errorf("%d distinct payloads persisted, want %d", len(persisted), len(specs))
	}
	for _, h := range sub.Hashes {
		if persisted[h] != 1 {
			t.Errorf("payload %s persisted %d times, want once", h, persisted[h])
		}
	}
}

// TestClusterHealthzRoles checks the cluster block both /healthz roles
// report — coordinators expose worker counts, workers name their
// coordinator — plus the status endpoint and the 503 a daemon returns
// for batch pushes when it never joined a cluster.
func TestClusterHealthzRoles(t *testing.T) {
	_, coordTS := newClusterNode(t, Options{})
	ws, wts := newClusterNode(t, Options{})
	if err := ws.JoinCluster(coordTS.URL, "w0", wts.URL); err != nil {
		t.Fatal(err)
	}

	var ch struct {
		Cluster cluster.Health `json:"cluster"`
	}
	getJSON(t, coordTS, "/healthz", &ch)
	if ch.Cluster.Role != "coordinator" || ch.Cluster.Workers != 1 {
		t.Fatalf("coordinator healthz cluster block = %+v", ch.Cluster)
	}
	getJSON(t, wts, "/healthz", &ch)
	if ch.Cluster.Role != "worker" || ch.Cluster.Coordinator != coordTS.URL {
		t.Fatalf("worker healthz cluster block = %+v", ch.Cluster)
	}

	var st cluster.Status
	getJSON(t, coordTS, "/cluster/status", &st)
	if len(st.Workers) != 1 || st.Workers[0].Name != "w0" || !st.Workers[0].Alive {
		t.Fatalf("cluster status = %+v", st)
	}

	// A daemon that never joined refuses pushed batches.
	resp, err := http.Post(coordTS.URL+"/cluster/batch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch push to a non-worker: status %d, want 503", resp.StatusCode)
	}
}

// TestClusterKillWorker is the kill e2e (`make clustercheck`): a
// coordinator with three workers loses one to a hard kill mid-campaign
// — heartbeats stop, its open batch strands — and the campaign must
// still finish with every run resolved exactly once and byte-identical
// to a single-node control. Gated behind HOTGAUGE_CLUSTER_E2E because
// the lease-expiry wait makes it seconds-slow.
func TestClusterKillWorker(t *testing.T) {
	if os.Getenv("HOTGAUGE_CLUSTER_E2E") == "" {
		t.Skip("set HOTGAUGE_CLUSTER_E2E=1 (make clustercheck) to run the worker-kill e2e")
	}
	specs := clusterSpecs(12)

	_, controlTS := newTestServer(t, Options{})
	control := submit(t, controlTS, specs...)
	waitState(t, controlTS, control.ID, JobDone)

	coord, coordTS := newClusterNode(t, Options{
		ClusterLeaseTTL: 400 * time.Millisecond,
		ClusterBatch:    2,
	})
	workers := joinWorkers(t, coordTS, 3)
	waitFor(t, func() bool { return coord.Coordinator().AliveWorkers() == 3 }, "workers to join")

	// Widen the kill window deterministically: every worker-executed run
	// stalls briefly before its first step, so the victim dies with its
	// batch provably unfinished.
	for _, ws := range workers {
		stallRuns(ws, 120*time.Millisecond)
	}

	sub := submit(t, coordTS, specs...)

	// Kill the first worker that accepts a batch, while its runs stall.
	victim := -1
	waitFor(t, func() bool {
		for i, ws := range workers {
			if ws.Registry().Snapshot().Counters[cluster.MetricWorkerBatches] > 0 {
				victim = i
				return true
			}
		}
		return false
	}, "a worker to receive a batch")
	workers[victim].ClusterWorker().Kill()
	t.Logf("killed worker-%d mid-campaign", victim)

	waitState(t, coordTS, sub.ID, JobDone)

	for i := range specs {
		got := fetchRun(t, coordTS, sub.ID, i)
		want := fetchRun(t, controlTS, control.ID, i)
		if string(got) != string(want) {
			t.Fatalf("run %d: post-kill bytes differ from single-node control", i)
		}
	}

	snap := coord.Registry().Snapshot()
	if got := int(snap.Counters[cluster.MetricWorkersLost]); got < 1 {
		t.Errorf("workers_lost = %d, want >= 1", got)
	}
	// Exactly-once resolution: each of the 12 runs produced exactly one
	// accepted result (worker-posted or coordinator fallback); any late
	// duplicate a half-dead worker managed to post was dropped and
	// counted separately.
	if got := int(snap.Counters[cluster.MetricResultsReceived] +
		snap.Counters[cluster.MetricLocalRuns]); got != len(specs) {
		t.Errorf("results_received+local_runs = %d, want exactly %d", got, len(specs))
	}
}
