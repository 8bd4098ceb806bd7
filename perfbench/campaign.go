package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"hotgauge/internal/cluster"
	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
	"hotgauge/internal/store"
)

// pass is one timed job with what the daemon left behind.
type pass struct {
	*jobResult
	traced bool
	runs   int
	steps  int
	heapMB float64 // live heap at the end, daemons still up
	// Daemon footprint of a cold pass: live heap growth over the
	// daemon's lifetime, and the journal and result-store bytes written.
	heapGrowKB       float64
	journal, results int64
}

// footprint is the daemon's per-job cost in memory and on disk.
type footprint struct {
	heapKBPerJob, journalPerJob, resultPerRun float64
	n                                         int
}

// runCold is campaign-cold and, with clustered, cluster-cold: each pass
// submits the eight-run campaign job to a fresh topology, so every run
// misses the cache. A traced run alternates untraced and traced passes.
func (b *bench) runCold(clustered bool) error {
	var specs []runSpec
	var wire []serve.ConfigSpec
	nworkers := 0
	if clustered {
		nworkers = clusterWorkers
	}
	regs := newRegistries(nworkers)
	var topo *topology
	err := b.setup(func() error {
		specs = campaignSpecs(b.seed)
		wire = wireSpecs(specs)
		if err := warmUp(specs[0]); err != nil {
			return err
		}
		var err error
		topo, err = b.newTopology(regs)
		return err
	}, func() { topo.stop() })
	if err != nil {
		return err
	}
	topo.stop()

	client := newHTTPClient()
	defer client.CloseIdleConnections()
	// Every pass must return the first pass's bytes, and on the cluster
	// those must match a single-node daemon's. Payloads are dropped once
	// compared, so heap_mb does not grow with the number of passes.
	before := snapAll(regs)
	var passes []pass
	var first [][]byte
	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := b.traced && i%2 == 1
		base := liveHeapMB()
		topo, err := b.newTopology(regs)
		if err != nil {
			return err
		}
		p, err := b.coldPass(client, topo, wire, specs, fmt.Sprintf("pass-%d", i), traced)
		topo.stop()
		if err != nil {
			continue
		}
		p.heapGrowKB = (p.heapMB - base) * 1024
		if first == nil {
			first = p.payloads
		}
		b.comparePayloads(p.payloads, first, specs, fmt.Sprintf("pass %d", i))
		p.payloads = nil
		passes = append(passes, *p)
	}
	after := snapAll(regs)
	if len(passes) == 0 {
		return fmt.Errorf("no pass completed")
	}
	if clustered {
		topo, err := b.newTopology(newRegistries(0))
		if err != nil {
			return err
		}
		jr, err := jobClient{http: client}.run(topo.entry.url, wire, "control")
		topo.stop()
		if err != nil {
			return fmt.Errorf("single-node control: %w", err)
		}
		b.comparePayloads(first, jr.payloads, specs, "single-node control")
	}

	plain, traced := splitPasses(passes)
	b.passEndToEnd(plain, 0, nil)
	if b.traced {
		var heapKB, journal, results []float64
		for _, p := range passes {
			heapKB = append(heapKB, p.heapGrowKB)
			journal = append(journal, float64(p.journal))
			results = append(results, float64(p.results)/float64(p.runs))
		}
		fp := footprint{median(heapKB), median(journal), median(results), len(passes)}
		b.campaignLayers(regs, before, after, passes, clustered, fp)
		b.setOverhead(passThroughput(plain), passThroughput(traced), "steps_per_s")
	}
	return nil
}

func (b *bench) coldPass(client *http.Client, topo *topology, wire []serve.ConfigSpec, specs []runSpec, owner string, traced bool) (*pass, error) {
	c := jobClient{http: client}
	if traced {
		c.tr = b.tr
	}
	b.rep.Attempted += len(wire)
	jr, err := c.run(topo.entry.url, wire, owner)
	if err != nil {
		for range wire {
			b.rep.fail(err)
		}
		return nil, err
	}
	p := &pass{jobResult: jr, traced: traced, runs: len(jr.payloads), heapMB: liveHeapMB(),
		journal: dirBytes(filepath.Join(topo.dir, "journal")),
		results: dirBytes(filepath.Join(topo.dir, "results"))}
	p.steps = b.checkPayloads(jr.payloads, specs, nil)
	if traced {
		b.probePut(jr.payloads, owner)
	}
	return p, nil
}

// comparePayloads fails every run whose bytes differ from want's.
func (b *bench) comparePayloads(got, want [][]byte, specs []runSpec, what string) {
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			b.rep.fail(fmt.Errorf("%s: %s payload differs from the first pass's", specs[i].key(), what))
		}
	}
}

// warmUp runs one campaign config in-process, untimed, so lazy set-up
// (heap growth, first touches of the model tables) is paid before the
// first timed pass.
func warmUp(r runSpec) error {
	cfg, err := analysisConfig(r, nil)
	if err != nil {
		return err
	}
	cfg.Record = sim.RecordOptions{}
	_, err = sim.Run(cfg)
	return err
}

// checkPayloads checks each run's payload against the oracle and, when
// want is given, byte-for-byte against it. It returns the steps the
// payloads hold.
func (b *bench) checkPayloads(payloads [][]byte, specs []runSpec, want [][]byte) int {
	steps := 0
	for i, data := range payloads {
		var v serve.RunView
		if err := json.Unmarshal(data, &v); err != nil {
			b.rep.fail(fmt.Errorf("%s: %w", specs[i].key(), err))
			continue
		}
		steps += v.StepsRun
		errT, err := b.ref.check(specs[i], peaks{TUHStep: v.TUHStep, PeakTemp: v.PeakTempC, PeakMLTD: math.NaN()})
		b.peakErr = max(b.peakErr, errT)
		switch {
		case err != nil:
			b.rep.fail(err)
		case v.StepsRun != specs[i].Steps:
			b.rep.fail(fmt.Errorf("%s: %d steps run, want %d", specs[i].key(), v.StepsRun, specs[i].Steps))
		case want != nil && !bytes.Equal(data, want[i]):
			b.rep.fail(fmt.Errorf("%s: payload differs from the cold pass's", specs[i].key()))
		}
	}
	return steps
}

// probePut times store.ResultStore.Put of a job's own payloads into a
// scratch store.
func (b *bench) probePut(payloads [][]byte, owner string) {
	rs, err := store.OpenResults(filepath.Join(b.scratch, "put-probe"))
	if err != nil {
		b.rep.fail(err)
		return
	}
	for i, p := range payloads {
		id := b.tr.begin("store.Put", owner, 0)
		err := rs.Put(fmt.Sprintf("%s-%d", owner, i), p)
		b.tr.end(id)
		if err != nil {
			b.rep.fail(err)
		}
	}
}

func splitPasses(ps []pass) (plain, traced []pass) {
	for _, p := range ps {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	return plain, traced
}

// passEndToEnd reports the end-to-end metrics of the untraced jobs. With
// window zero the jobs ran one after another, their summed wall time is
// the denominator and heap_mb the median over passes; otherwise they ran
// concurrently within window and heap_mb is the median of heaps.
func (b *bench) passEndToEnd(ps []pass, window time.Duration, heaps []float64) {
	var busy time.Duration
	var runLat, jobLat []time.Duration
	var passHeaps []float64
	steps, runs := 0, 0
	for _, p := range ps {
		busy += p.wall
		steps += p.steps
		runs += p.runs
		runLat = append(runLat, p.runLat...)
		jobLat = append(jobLat, p.jobLat)
		passHeaps = append(passHeaps, p.heapMB)
	}
	secs := busy.Seconds()
	if window > 0 {
		secs = window.Seconds()
	} else {
		heaps = passHeaps
	}
	set := b.setEndToEnd
	set("steps_per_s", ratio(float64(steps), secs), runs)
	set("runs_per_s", ratio(float64(runs), secs), runs)
	set("jobs_per_s", ratio(float64(len(ps)), secs), len(ps))
	set("run_p50_ms", median(ms(runLat)), len(runLat))
	set("job_p50_ms", median(ms(jobLat)), len(jobLat))
	for _, q := range []float64{95, 99} {
		b.rep.extra(fmt.Sprintf("job_p%g_ms", q), "ms", nearestRank(ms(jobLat), q), len(jobLat))
	}
	set("heap_mb", median(heaps), len(heaps))
}

func passThroughput(ps []pass) float64 {
	var wall time.Duration
	steps := 0
	for _, p := range ps {
		wall += p.wall
		steps += p.steps
	}
	return ratio(float64(steps), wall.Seconds())
}

func jobRunRate(ps []pass) float64 {
	var wall time.Duration
	runs := 0
	for _, p := range ps {
		wall += p.wall
		runs += p.runs
	}
	return ratio(float64(runs), wall.Seconds())
}

// campaignLayers derives the per-layer metrics of a daemon workload from
// the daemons' own registries (differenced over the measured window) and
// the traced jobs' spans.
func (b *bench) campaignLayers(regs registries, before, after []obs.Snapshot, ps []pass, clustered bool, fp footprint) {
	entry := deltaSnap(before[0], after[0])
	simSnap := entry
	if clustered {
		var ws []obs.Snapshot
		for i := range regs.workers {
			ws = append(ws, deltaSnap(before[i+1], after[i+1]))
		}
		simSnap = mergeSnaps(ws)
	}
	steps := simSnap.Counters[sim.MetricSteps]

	b.setTimer("perf.step_us", simSnap, sim.MetricStagePerf, 1e6)
	b.setTimer("power.step_us", simSnap, sim.MetricStagePower, 1e6)
	b.setTimer("thermal.step_us", simSnap, sim.MetricStageThermal, 1e6)
	b.rep.setBase("thermal.substeps_per_step", ratio(float64(simSnap.Counters[sim.MetricThermalSubsteps]), float64(steps)),
		fmt.Sprintf("%d steps", steps))
	// Campaign specs record no MLTD, severity or percentile series, so
	// those analysis calls never happen on these workloads.
	for _, name := range []string{"core.mltd_us", "core.severity_us", "stats.percentiles_us", "sim.analysis_to_thermal"} {
		b.rep.set(name, 0, 0)
	}
	b.setTimer("core.detect_us", simSnap, sim.MetricStageDetect, 1e6)
	b.setDetectSkip(simSnap)
	b.setTimer("sim.setup_ms", simSnap, sim.MetricStageSetup, 1e3)
	b.setTimer("sim.record_us", simSnap, sim.MetricStageRecord, 1e6)
	var staged float64
	for _, st := range simSnap.Stages(sim.StagePrefix) {
		staged += st.Total.Seconds()
	}
	run := simSnap.Timers[sim.MetricRunTime].TotalSeconds
	b.rep.setBase("sim.unattributed_frac", ratio(run-staged, run), fmt.Sprintf("sim/run %.0f ms", run*1e3))

	var submit, queue, exec []float64
	for _, p := range ps {
		if p.traced {
			submit = append(submit, float64(p.submitRTT)/1e6)
			queue = append(queue, float64(p.queueWait)/1e6)
			exec = append(exec, float64(p.exec)/1e6)
		}
	}
	b.rep.set("serve.submit_ms", median(submit), len(submit))
	b.rep.set("serve.queue_wait_ms", median(queue), len(queue))
	b.rep.set("serve.exec_ms", median(exec), len(exec))
	hits, misses := entry.Counters[serve.MetricCacheHits], entry.Counters[serve.MetricCacheMisses]
	b.rep.setBase("serve.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), fmt.Sprintf("%d lookups", hits+misses))
	b.rep.set("serve.jobs_rejected", float64(entry.Counters[serve.MetricJobsRejected]), 0)
	b.rep.set("serve.heap_kb_per_job", fp.heapKBPerJob, fp.n)
	put := b.tr.layers()["store.Put"]
	b.rep.set("store.put_us", put.meanUS(), put.Count)
	b.rep.set("store.journal_bytes_per_job", fp.journalPerJob, fp.n)
	b.rep.set("store.result_bytes_per_run", fp.resultPerRun, fp.n)

	if !clustered {
		b.zeroLayers("cluster.")
		return
	}
	batches := entry.Counters[cluster.MetricBatchesDispatched]
	b.rep.setBase("cluster.runs_per_batch", ratio(float64(entry.Counters[cluster.MetricRunsDispatched]), float64(batches)),
		fmt.Sprintf("%d batches", batches))
	var wall float64
	for _, p := range ps {
		wall += p.wall.Seconds()
	}
	busy := simSnap.Timers[sim.MetricRunTime].TotalSeconds
	b.rep.setBase("cluster.worker_busy_frac", ratio(busy, wall*float64(len(regs.workers))),
		fmt.Sprintf("%d workers x %.2f s", len(regs.workers), wall))
	for name, counter := range map[string]string{
		"cluster.runs_stolen":       cluster.MetricRunsStolen,
		"cluster.runs_reassigned":   cluster.MetricRunsReassigned,
		"cluster.dispatch_errors":   cluster.MetricDispatchErrors,
		"cluster.duplicate_results": cluster.MetricDuplicateResults,
		"cluster.local_runs":        cluster.MetricLocalRuns,
	} {
		b.rep.set(name, float64(entry.Counters[counter]), 0)
	}
}

// snapAll snapshots the entry registry then each worker's.
func snapAll(r registries) []obs.Snapshot {
	out := []obs.Snapshot{r.entry.Snapshot()}
	for _, w := range r.workers {
		out = append(out, w.Snapshot())
	}
	return out
}

// deltaSnap is the counters and timers accumulated between two snapshots.
func deltaSnap(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerSnapshot{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, v := range after.Timers {
		b := before.Timers[k]
		t := obs.TimerSnapshot{Count: v.Count - b.Count, TotalSeconds: v.TotalSeconds - b.TotalSeconds}
		if t.Count > 0 {
			t.MeanSeconds = t.TotalSeconds / float64(t.Count)
		}
		d.Timers[k] = t
	}
	return d
}

// mergeSnaps sums counters and timers across registries.
func mergeSnaps(snaps []obs.Snapshot) obs.Snapshot {
	m := obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerSnapshot{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			m.Counters[k] += v
		}
		for k, v := range s.Timers {
			t := m.Timers[k]
			t.Count += v.Count
			t.TotalSeconds += v.TotalSeconds
			if t.Count > 0 {
				t.MeanSeconds = t.TotalSeconds / float64(t.Count)
			}
			m.Timers[k] = t
		}
	}
	return m
}
