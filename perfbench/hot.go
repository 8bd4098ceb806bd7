package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/serve"
)

// campaign-hot shape. The daemon keeps every job it accepted, so its heap
// and with it the garbage collector's work grow with the jobs it has
// served: left alone, heap_mb and the job tail latency would follow
// throughput rather than the serve path's cost. The daemon is therefore
// restarted on its data dir after hotRoundJobs jobs, its journal
// cleared, and its cache refilled from the durable result store by one
// untimed resubmission of the warm job. heap_mb is sampled when a round's
// hotHeapMark-th job completes.
const (
	hotRoundJobs = 2000
	hotHeapMark  = 500
	hotClients   = 2
)

// hotWindow is what the campaign-hot clients measured in one round.
type hotWindow struct {
	jobs          []pass
	active        time.Duration // clients running, heap sampling excluded
	heapAtMark    float64       // at the end when fewer than hotHeapMark jobs ran
	fp            footprint
	before, after obs.Snapshot
}

// runHot is campaign-hot: one durable daemon warmed by a cold pass during
// set-up, then two closed-loop clients resubmitting seeded four-run
// subsets of the warm specs, every run a cache hit.
func (b *bench) runHot() error {
	var specs []runSpec
	var wire []serve.ConfigSpec
	regs := newRegistries(0)
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var topo *topology
	var warm [][]byte
	err := b.setup(func() error {
		specs = campaignSpecs(b.seed)
		wire = wireSpecs(specs)
		var err error
		if topo, err = b.newTopology(regs); err != nil {
			return err
		}
		b.rep.Attempted += len(wire)
		jr, err := jobClient{http: client}.run(topo.entry.url, wire, "warm")
		if err != nil {
			return err
		}
		b.checkPayloads(jr.payloads, specs, warm)
		warm = jr.payloads
		return nil
	}, func() { topo.stop() })
	if err != nil {
		return err
	}
	defer topo.stop()

	subsets := make([]*hotSubsets, hotClients)
	for c := range subsets {
		subsets[c] = newHotSubsets(b.seed, c)
	}
	var jobs []pass
	var active time.Duration
	var heaps, heapKB, journal, results []float64
	var deltas []obs.Snapshot
	deadline := time.Now().Add(b.seconds)
	for r := 0; time.Now().Before(deadline); r++ {
		if r > 0 {
			if err := b.restartHot(topo, regs, client, wire, specs, warm); err != nil {
				return err
			}
		}
		w := b.serveHot(client, topo, r, subsets, wire, specs, warm, deadline)
		jobs = append(jobs, w.jobs...)
		active += w.active
		if len(w.jobs) >= hotHeapMark || len(heaps) == 0 {
			heaps = append(heaps, w.heapAtMark)
		}
		heapKB = append(heapKB, w.fp.heapKBPerJob)
		journal = append(journal, w.fp.journalPerJob)
		results = append(results, w.fp.resultPerRun)
		deltas = append(deltas, deltaSnap(w.before, w.after))
	}
	plain, traced := splitPasses(jobs)
	b.passEndToEnd(plain, active, heaps)
	b.rep.extra("hot.rounds", "count", float64(len(heaps)), 0)
	if b.traced {
		fp := footprint{median(heapKB), median(journal), median(results), len(heaps)}
		b.campaignLayers(regs, []obs.Snapshot{{}}, []obs.Snapshot{mergeSnaps(deltas)}, jobs, false, fp)
		b.setOverhead(jobRunRate(plain), jobRunRate(traced), "per-job runs/s")
	}
	return nil
}

// restartHot replaces the daemon with a fresh one on the same data dir,
// journal cleared, and refills its cache from the durable result store.
func (b *bench) restartHot(topo *topology, regs registries, client *http.Client, wire []serve.ConfigSpec, specs []runSpec, warm [][]byte) error {
	topo.entry.stop()
	if err := os.RemoveAll(filepath.Join(topo.dir, "journal")); err != nil {
		return err
	}
	var err error
	if topo.entry, err = startNode(entryOptions(topo.dir, regs)); err != nil {
		return err
	}
	jr, err := jobClient{http: client}.run(topo.entry.url, wire, "rewarm")
	if err != nil {
		return err
	}
	b.comparePayloads(jr.payloads, warm, specs, "durable store")
	return nil
}

// serveHot runs the closed-loop clients against the warm daemon until it
// has served hotRoundJobs jobs or the deadline passes.
func (b *bench) serveHot(client *http.Client, topo *topology, round int, subsets []*hotSubsets,
	wire []serve.ConfigSpec, specs []runSpec, warm [][]byte, deadline time.Time) hotWindow {
	journalDir, resultsDir := filepath.Join(topo.dir, "journal"), filepath.Join(topo.dir, "results")
	rd := hotWindow{before: topo.entry.srv.Registry().Snapshot()}
	heap0 := liveHeapMB()
	journal0, results0 := dirBytes(journalDir), dirBytes(resultsDir)

	var mu sync.Mutex
	var pause time.Duration
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, sub := range subsets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				mu.Lock()
				done := len(rd.jobs) >= hotRoundJobs || !time.Now().Before(deadline)
				mu.Unlock()
				if done {
					return
				}
				idx := sub.next()
				subSpecs := make([]runSpec, len(idx))
				subWire := make([]serve.ConfigSpec, len(idx))
				want := make([][]byte, len(idx))
				for k, i := range idx {
					subSpecs[k], subWire[k], want[k] = specs[i], wire[i], warm[i]
				}
				jc := jobClient{http: client}
				traced := b.traced && j%2 == 1
				if traced {
					jc.tr = b.tr
				}
				owner := fmt.Sprintf("round-%d-client-%d-job-%d", round, c, j)
				jr, err := jc.run(topo.entry.url, subWire, owner)

				mu.Lock()
				b.rep.Attempted += len(idx)
				if err != nil {
					for range idx {
						b.rep.fail(err)
					}
				} else {
					if traced {
						b.probePut(jr.payloads, owner)
					}
					steps := b.checkPayloads(jr.payloads, subSpecs, want)
					jr.payloads = nil // checked; keeping them would swamp heap_mb
					rd.jobs = append(rd.jobs, pass{jobResult: jr, traced: traced, runs: len(idx), steps: steps})
					if len(rd.jobs) == hotHeapMark {
						m0 := time.Now()
						rd.heapAtMark = liveHeapMB()
						pause = time.Since(m0)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rd.active = time.Since(t0) - pause
	rd.after = topo.entry.srv.Registry().Snapshot()

	if rd.heapAtMark == 0 {
		rd.heapAtMark = liveHeapMB()
	}
	n := float64(max(len(rd.jobs), 1))
	runs := 0
	for _, p := range rd.jobs {
		runs += p.runs
	}
	rd.fp = footprint{
		heapKBPerJob:  (liveHeapMB() - heap0) * 1024 / n,
		journalPerJob: float64(dirBytes(journalDir)-journal0) / n,
		resultPerRun:  ratio(float64(dirBytes(resultsDir)-results0), float64(runs)),
		n:             len(rd.jobs),
	}
	return rd
}
