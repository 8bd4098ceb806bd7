package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
)

// daemonDefaultSolver is the daemon's -solver setting: unset, so specs
// that name no solver get the simulator's default.
const daemonDefaultSolver = ""

// clusterWorkers is how many worker daemons cluster-cold joins, and
// clusterBatch how many runs the coordinator pushes to a worker at once.
// One run per batch lets dispatch balance the two single-run workers as
// they free up; with larger batches the split of one eight-run job
// depends on where its seeded configs hash on the ring, so throughput
// would follow the seed rather than the code.
const (
	clusterWorkers = 2
	clusterBatch   = 1
)

// node is one in-process daemon behind a loopback listener.
type node struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

func startNode(opts serve.Options) (*node, error) {
	s, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	n := &node{srv: s, hs: &http.Server{Handler: s}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		n.hs.Serve(ln)
		close(n.served)
	}()
	return n, nil
}

// stop drains the daemon, closes its listener and waits for both.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	n.hs.Close()
	<-n.served
}

// registries are shared by every daemon of one role across a run's
// passes, so counters and stage timers accumulate over the whole run.
type registries struct {
	entry   *obs.Registry
	workers []*obs.Registry
}

func newRegistries(workers int) registries {
	r := registries{entry: obs.NewRegistry()}
	for i := 0; i < workers; i++ {
		r.workers = append(r.workers, obs.NewRegistry())
	}
	return r
}

// topology is the daemon(s) one pass talks to: a durable entry daemon
// and, for cluster-cold, in-memory workers joined to it over loopback.
type topology struct {
	entry   *node
	workers []*node
	dir     string
}

// entryOptions configures the daemon jobs are submitted to: durable in
// dir with the default fsync, nproc run workers, the daemon default
// solver.
func entryOptions(dir string, regs registries) serve.Options {
	return serve.Options{
		DataDir:       dir,
		RunWorkers:    runtime.NumCPU(),
		Registry:      regs.entry,
		DefaultSolver: daemonDefaultSolver,
		ClusterBatch:  clusterBatch,
	}
}

func (b *bench) newTopology(regs registries) (*topology, error) {
	b.dirs++
	t := &topology{dir: filepath.Join(b.scratch, fmt.Sprintf("data-%d", b.dirs))}
	var err error
	t.entry, err = startNode(entryOptions(t.dir, regs))
	if err != nil {
		return nil, err
	}
	for i, reg := range regs.workers {
		w, err := startNode(serve.Options{RunWorkers: 1, Registry: reg, DefaultSolver: daemonDefaultSolver})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, w)
		// The ring places runs by worker name, so naming the workers
		// after the topology gives every pass its own placement: pooled
		// over passes, latency does not hinge on where one seed's eight
		// configs happen to hash.
		name := fmt.Sprintf("worker-%d-%d", b.dirs, i)
		if err := w.srv.JoinCluster(t.entry.url, name, w.url); err != nil {
			t.stop()
			return nil, err
		}
	}
	for deadline := time.Now().Add(10 * time.Second); t.entry.srv.Coordinator().AliveWorkers() < len(regs.workers); {
		if time.Now().After(deadline) {
			t.stop()
			return nil, fmt.Errorf("cluster workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	return t, nil
}

// stop shuts the workers down before the entry daemon, then removes the
// data dir.
func (t *topology) stop() {
	for _, w := range t.workers {
		w.stop()
	}
	if t.entry != nil {
		t.entry.stop()
	}
	os.RemoveAll(t.dir)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// jobResult is one job as a client saw it.
type jobResult struct {
	id        string
	submitRTT time.Duration   // POST /jobs round trip
	runLat    []time.Duration // submission to each run's progress event
	jobLat    time.Duration   // submission to the terminal event
	wall      time.Duration   // submission to results fetched
	payloads  [][]byte
	// Daemon-side timestamps, fetched on traced jobs only.
	queueWait, exec time.Duration
}

type jobClient struct {
	http *http.Client
	tr   *tracer // nil on untraced jobs
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// run submits one job, follows its event stream to the terminal state and
// fetches its result payloads. Any non-2xx answer, a job that does not
// finish done, or a run without a payload is an error.
func (c jobClient) run(base string, specs []serve.ConfigSpec, owner string) (*jobResult, error) {
	root := c.tr.begin("job", owner, 0)
	defer c.tr.end(root)
	body, err := json.Marshal(map[string]any{"configs": specs})
	if err != nil {
		return nil, err
	}
	jr := &jobResult{}
	t0 := time.Now()
	id := c.tr.begin("serve.submit", owner, root)
	var sub struct {
		ID string `json:"id"`
	}
	err = c.do(http.MethodPost, base+"/jobs", body, &sub)
	c.tr.end(id)
	jr.submitRTT = time.Since(t0)
	if err != nil {
		return nil, err
	}
	jr.id = sub.ID

	id = c.tr.begin("serve.events", owner, root)
	err = c.follow(base+"/jobs/"+jr.id+"/events?format=ndjson", t0, jr)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}

	id = c.tr.begin("serve.results", owner, root)
	var res struct {
		State string `json:"state"`
		Runs  []struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"runs"`
	}
	err = c.do(http.MethodGet, base+"/jobs/"+jr.id+"/results", nil, &res)
	c.tr.end(id)
	jr.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if res.State != string(serve.JobDone) || len(res.Runs) != len(specs) {
		return nil, fmt.Errorf("job %s: state %s with %d/%d runs", jr.id, res.State, len(res.Runs), len(specs))
	}
	for i, r := range res.Runs {
		if len(r.Result) == 0 {
			return nil, fmt.Errorf("job %s run %d: %s without a payload %s", jr.id, i, r.State, r.Error)
		}
		jr.payloads = append(jr.payloads, r.Result)
	}

	if c.tr != nil {
		var st serve.JobStatus
		id = c.tr.begin("serve.status", owner, root)
		err = c.do(http.MethodGet, base+"/jobs/"+jr.id, nil, &st)
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			jr.queueWait = st.StartedAt.Sub(st.SubmittedAt)
			jr.exec = st.FinishedAt.Sub(*st.StartedAt)
		}
	}
	return jr, nil
}

func (c jobClient) do(method, url string, body []byte, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// follow reads the job's ndjson event stream until a terminal event,
// stamping each newly completed run and the terminal event.
func (c jobClient) follow(url string, t0 time.Time, jr *jobResult) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	completed := 0
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		now := time.Since(t0)
		for ; completed < ev.Completed; completed++ {
			jr.runLat = append(jr.runLat, now)
		}
		switch ev.State {
		case serve.JobDone, serve.JobFailed, serve.JobCancelled:
			jr.jobLat = now
			if ev.State != serve.JobDone || ev.Failed > 0 {
				return fmt.Errorf("job %s ended %s with %d failed runs: %s", ev.Job, ev.State, ev.Failed, ev.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream %s ended before the job did", url)
}
