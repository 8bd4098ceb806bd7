package main

import (
	"fmt"
	"time"

	"hotgauge/internal/core"
	"hotgauge/internal/geometry"
	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/stats"
	"hotgauge/internal/thermal"
)

// probeEvery is how often a traced run keeps a junction frame for the
// direct analysis calls (10 frames of a 400-step run).
const probeEvery = 40

// timedSolver records a span around every thermal step of a traced run.
type timedSolver struct {
	inner  thermal.Solver
	tr     *tracer
	owner  string
	parent int
}

func (s *timedSolver) Step(g *thermal.Grid, st *thermal.State, p *thermal.Power, dt float64) error {
	id := s.tr.begin("thermal.Step", s.owner, s.parent)
	err := s.inner.Step(g, st, p, dt)
	s.tr.end(id)
	return err
}

func (s *timedSolver) Name() string { return s.inner.Name() }

// analysisCall is one sim.Run of the run-analysis loop.
type analysisCall struct {
	wall  time.Duration
	steps int
}

// runAnalysis is the run-analysis workload: one client calling sim.Run
// in a closed loop on the hotgauge CLI's ADI config. A traced run
// alternates an untraced and a traced call on each config, so the two
// modes see the same inputs and the same machine drift.
func (b *bench) runAnalysis() error {
	var specs []runSpec
	setup := func() error {
		specs = analysisSpecs(b.seed)
		// The first sim.Run pays for lazy set-up (heap growth, first
		// touches of the model tables); it is part of set-up, not timed.
		_, err := b.analysisOnce(specs[0], nil, nil, "warmup")
		return err
	}
	if err := b.setup(setup, nil); err != nil {
		return err
	}

	var plain, traced []analysisCall
	reg := obs.NewRegistry() // stage timers of the traced calls
	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		r := specs[i%len(specs)]
		if c, err := b.analysisOnce(r, nil, nil, fmt.Sprintf("run-%d", i)); err == nil {
			plain = append(plain, c)
		}
		if b.traced {
			if c, err := b.analysisOnce(r, reg, b.tr, fmt.Sprintf("run-%d-traced", i)); err == nil {
				traced = append(traced, c)
			}
		}
	}
	b.analysisEndToEnd(plain, liveHeapMB())
	if b.traced {
		b.analysisLayers(reg, plain, traced)
	}
	return nil
}

// analysisOnce runs and checks one config. With a registry and tracer it
// is the traced variant: the program's own stage timers on, a span
// around sim.Run and each solver step, and frames kept for direct
// analysis calls afterwards.
func (b *bench) analysisOnce(r runSpec, reg *obs.Registry, tr *tracer, owner string) (analysisCall, error) {
	solver, err := thermal.NewSolver("adi", 0)
	if err != nil {
		return analysisCall{}, err
	}
	cfg, err := analysisConfig(r, solver)
	if err != nil {
		return analysisCall{}, err
	}
	var root int
	if tr != nil {
		adi := solver.(*thermal.ADI)
		adi.Substeps = reg.Counter(sim.MetricThermalSubsteps)
		adi.Saved = reg.Counter(sim.MetricThermalADISaved)
		adi.StabilityHits = reg.Counter(sim.MetricThermalStability)
		cfg.Obs = reg
		cfg.Record.FieldEvery = probeEvery
		root = tr.begin("sim.Run", owner, 0)
		cfg.Solver = &timedSolver{inner: solver, tr: tr, owner: owner, parent: root}
	}
	b.rep.Attempted++
	t0 := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(t0)
	tr.end(root)
	if err == nil {
		var errT float64
		errT, err = b.ref.check(r, resultPeaks(res))
		b.peakErr = max(b.peakErr, errT)
		if err == nil && res.StepsRun != r.Steps {
			err = fmt.Errorf("%s: %d steps run, want %d", r.key(), res.StepsRun, r.Steps)
		}
	}
	if err != nil {
		b.rep.fail(err)
		return analysisCall{}, err
	}
	if tr != nil {
		probeAnalysis(res.Fields, tr, owner)
	}
	return analysisCall{wall: wall, steps: res.StepsRun}, nil
}

// probeAnalysis times direct calls into core and stats on a run's own
// frames: the analysis the run's record stage performs per step.
func probeAnalysis(frames []*geometry.Field, tr *tracer, owner string) {
	if len(frames) == 0 {
		return
	}
	an, err := core.NewAnalyzer(frames[0], core.DefaultDefinition())
	if err != nil {
		return
	}
	parent := tr.begin("analysis-probe", owner, 0)
	for _, f := range frames {
		id := tr.begin("core.MaxMLTD", owner, parent)
		an.MaxMLTD(f)
		tr.end(id)
		id = tr.begin("core.MaxSeverity", owner, parent)
		an.MaxSeverity(f)
		tr.end(id)
		id = tr.begin("core.Detect", owner, parent)
		an.Detect(f)
		tr.end(id)
		id = tr.begin("stats.Percentiles", owner, parent)
		stats.Percentiles(f.Data, 5, 25, 50, 75, 95)
		tr.end(id)
	}
	tr.end(parent)
}

func (b *bench) analysisEndToEnd(calls []analysisCall, heapMB float64) {
	var wall time.Duration
	steps := 0
	lat := make([]time.Duration, len(calls))
	for i, c := range calls {
		wall += c.wall
		steps += c.steps
		lat[i] = c.wall
	}
	n := len(calls)
	set := b.setEndToEnd
	// One sim.Run call is both the run and the client's job here.
	set("steps_per_s", ratio(float64(steps), wall.Seconds()), n)
	set("runs_per_s", ratio(float64(n), wall.Seconds()), n)
	set("jobs_per_s", ratio(float64(n), wall.Seconds()), n)
	set("run_p50_ms", median(ms(lat)), n)
	set("job_p50_ms", median(ms(lat)), n)
	for _, q := range []float64{95, 99} {
		b.rep.extra(fmt.Sprintf("job_p%g_ms", q), "ms", nearestRank(ms(lat), q), n)
	}
	set("heap_mb", heapMB, 1)
}

func (b *bench) analysisLayers(reg *obs.Registry, plain, traced []analysisCall) {
	snap := reg.Snapshot()
	layers := b.tr.layers()
	steps := float64(snap.Counters[sim.MetricSteps])

	b.setTimer("perf.step_us", snap, sim.MetricStagePerf, 1e6)
	b.setTimer("power.step_us", snap, sim.MetricStagePower, 1e6)
	th := layers["thermal.Step"]
	b.rep.set("thermal.step_us", th.meanUS(), th.Count)
	b.rep.setBase("thermal.substeps_per_step", ratio(float64(snap.Counters[sim.MetricThermalSubsteps]), steps),
		fmt.Sprintf("%.0f steps", steps))
	mltd, sev, det, pct := layers["core.MaxMLTD"], layers["core.MaxSeverity"], layers["core.Detect"], layers["stats.Percentiles"]
	b.rep.set("core.mltd_us", mltd.meanUS(), mltd.Count)
	b.rep.set("core.severity_us", sev.meanUS(), sev.Count)
	b.rep.set("core.detect_us", det.meanUS(), det.Count)
	b.rep.set("stats.percentiles_us", pct.meanUS(), pct.Count)
	b.setDetectSkip(snap)
	b.setTimer("sim.setup_ms", snap, sim.MetricStageSetup, 1e3)
	b.setTimer("sim.record_us", snap, sim.MetricStageRecord, 1e6)
	b.rep.setBase("sim.analysis_to_thermal",
		ratio(mltd.meanUS()+sev.meanUS()+pct.meanUS(), th.meanUS()),
		fmt.Sprintf("thermal.step_us %.1f", th.meanUS()))

	// Self times: sim.Run's wall time splits into the solver steps (the
	// spans), the rest of the thermal stage, and the other stage timers;
	// whatever no stage covers is unattributed.
	run := layers["sim.Run"]
	var staged time.Duration
	for _, st := range snap.Stages(sim.StagePrefix) {
		staged += st.Total
		self := st.Total
		if st.Name == "thermal" {
			self -= th.Total
			b.rep.extra("self.thermal.Step_ms", "ms", float64(th.Total)/1e6, th.Count)
		}
		b.rep.extra("self.sim.stage."+st.Name+"_ms", "ms", float64(self)/1e6, int(st.Count))
	}
	b.rep.extra("self.sim.Run_total_ms", "ms", float64(run.Total)/1e6, run.Count)
	b.rep.setBase("sim.unattributed_frac", ratio(float64(run.Total-staged), float64(run.Total)),
		fmt.Sprintf("sim.Run %.0f ms", float64(run.Total)/1e6))

	b.zeroLayers("serve.", "store.", "cluster.")
	b.setOverhead(throughput(plain), throughput(traced), "steps_per_s")
}

func throughput(calls []analysisCall) float64 {
	var wall time.Duration
	steps := 0
	for _, c := range calls {
		wall += c.wall
		steps += c.steps
	}
	return ratio(float64(steps), wall.Seconds())
}
