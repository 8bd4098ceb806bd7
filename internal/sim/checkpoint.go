package sim

import (
	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/perf"
	"hotgauge/internal/thermal"
)

// Checkpoint is a resumable snapshot of an in-progress run, taken at a
// step boundary: the step index, the full junction-temperature state of
// the thermal stack, and every per-step series recorded so far. The
// performance-model position is not serialized — sources are
// deterministic functions of the step sequence, so a resuming run
// fast-forwards them by replaying their Step calls for the skipped
// steps (free for the stateless interval model, perf-stage-only cost
// for the cycle model). For the explicit and ADI solvers a resumed run
// is bit-identical to an uninterrupted one (both adapt statelessly
// within each Step).
//
// All slices and maps are deep copies owned by the checkpoint; a
// Checkpointer may retain them across the run.
type Checkpoint struct {
	// StepsDone is how many timesteps had completed when the snapshot
	// was taken; the resumed run continues at step index StepsDone.
	StepsDone int
	// TotalSteps pins the config's step count; a mismatch invalidates
	// the checkpoint.
	TotalSteps int
	// Cells pins the thermal state length (grid shape); a mismatch
	// invalidates the checkpoint.
	Cells int
	// Temps is the full thermal stack state [°C], all layers.
	Temps []float64

	// InitialTemp preserves Result.InitialTemp (the restored state is
	// mid-run, so it cannot be recomputed).
	InitialTemp float64
	// TUHStep is Result.TUHStep at snapshot time (-1 if no hotspot yet);
	// FirstHotspots the matching first-frame hotspots.
	TUHStep       int
	FirstHotspots []core.Hotspot

	// Per-step series recorded so far (see Result).
	MaxTemp, MeanTemp, Power, IPC []float64
	MLTD, Severity                []float64
	TempPcts                      [][5]float64
	UnitSeverity                  map[string][]float64
	HotspotUnit                   map[floorplan.Kind]int

	// Multi-die series (stacked presets; see Result.DieMaxTemp).
	DieMaxTemp, DieSeverity [][]float64
	MemPower                []float64
}

// Checkpointer is the checkpoint seam on a run: RunCtx loads at start
// (resuming when a valid snapshot exists), saves every
// Config.CheckpointEvery completed steps, and clears on success so a
// finished run never resumes. Implementations must be usable from the
// single goroutine of one run; the file-backed implementation lives in
// internal/store.
type Checkpointer interface {
	// Load returns the latest snapshot, or (nil, nil) when none exists.
	Load() (*Checkpoint, error)
	// Save persists a snapshot, replacing any previous one.
	Save(*Checkpoint) error
	// Clear discards the snapshot (missing snapshots are not an error).
	Clear() error
}

// snapshot builds a deep-copied checkpoint of the run after `done`
// completed steps.
func snapshot(state *thermal.State, res *Result, done, total int) *Checkpoint {
	ck := &Checkpoint{
		StepsDone:   done,
		TotalSteps:  total,
		Cells:       len(state.T),
		Temps:       append([]float64(nil), state.T...),
		InitialTemp: res.InitialTemp,
		TUHStep:     res.TUHStep,
		MaxTemp:     append([]float64(nil), res.MaxTemp...),
		MeanTemp:    append([]float64(nil), res.MeanTemp...),
		Power:       append([]float64(nil), res.Power...),
		IPC:         append([]float64(nil), res.IPC...),
		MLTD:        append([]float64(nil), res.MLTD...),
		Severity:    append([]float64(nil), res.Severity...),
		TempPcts:    append([][5]float64(nil), res.TempPcts...),
		MemPower:    append([]float64(nil), res.MemPower...),
	}
	for _, s := range res.DieMaxTemp {
		ck.DieMaxTemp = append(ck.DieMaxTemp, append([]float64(nil), s...))
	}
	for _, s := range res.DieSeverity {
		ck.DieSeverity = append(ck.DieSeverity, append([]float64(nil), s...))
	}
	if res.TUHStep >= 0 {
		ck.FirstHotspots = append([]core.Hotspot(nil), res.FirstHotspots...)
	}
	if res.UnitSeverity != nil {
		ck.UnitSeverity = make(map[string][]float64, len(res.UnitSeverity))
		for name, s := range res.UnitSeverity {
			ck.UnitSeverity[name] = append([]float64(nil), s...)
		}
	}
	if res.HotspotUnit != nil {
		ck.HotspotUnit = make(map[floorplan.Kind]int, len(res.HotspotUnit))
		for k, n := range res.HotspotUnit {
			ck.HotspotUnit[k] = n
		}
	}
	return ck
}

// valid reports whether the checkpoint can resume a run with the given
// step count and thermal state size. Invalid or stale checkpoints are
// ignored (the run restarts from t=0) rather than failing the run.
func (ck *Checkpoint) valid(totalSteps, cells int) bool {
	if ck == nil || ck.StepsDone <= 0 || ck.StepsDone >= totalSteps {
		return false
	}
	if ck.TotalSteps != totalSteps || ck.Cells != cells || len(ck.Temps) != cells {
		return false
	}
	// Every always-on series must cover exactly the completed steps;
	// anything else means the snapshot does not match this config.
	n := ck.StepsDone
	return len(ck.MaxTemp) == n && len(ck.MeanTemp) == n && len(ck.Power) == n && len(ck.IPC) == n
}

// resume attempts to restore a run from cfg.Checkpoint: on success the
// thermal state and the result's recorded series are restored, the
// sources are fast-forwarded past the completed steps, and the step
// index to continue from is returned. A missing, unreadable or
// mismatched checkpoint restarts from step 0 (unreadable ones count in
// sim/checkpoint_errors).
func (m runMetrics) resume(cfg Config, state *thermal.State, res *Result, src perf.Source, secondary map[int]perf.Source) int {
	ck, err := cfg.Checkpoint.Load()
	if err != nil {
		m.ckptErrors.Inc()
		return 0
	}
	if !ck.valid(cfg.Steps, len(state.T)) {
		return 0
	}
	copy(state.T, ck.Temps)
	res.InitialTemp = ck.InitialTemp
	res.StepsRun = ck.StepsDone
	res.TUHStep = ck.TUHStep
	if ck.TUHStep >= 0 {
		res.TUH = float64(ck.TUHStep+1) * Timestep
		res.FirstHotspots = append([]core.Hotspot(nil), ck.FirstHotspots...)
	}
	res.MaxTemp = append([]float64(nil), ck.MaxTemp...)
	res.MeanTemp = append([]float64(nil), ck.MeanTemp...)
	res.Power = append([]float64(nil), ck.Power...)
	res.IPC = append([]float64(nil), ck.IPC...)
	res.MLTD = append([]float64(nil), ck.MLTD...)
	res.Severity = append([]float64(nil), ck.Severity...)
	res.TempPcts = append([][5]float64(nil), ck.TempPcts...)
	res.MemPower = append([]float64(nil), ck.MemPower...)
	if len(ck.DieMaxTemp) == len(res.DieMaxTemp) {
		for i, s := range ck.DieMaxTemp {
			res.DieMaxTemp[i] = append([]float64(nil), s...)
		}
	}
	if len(ck.DieSeverity) == len(res.DieSeverity) {
		for i, s := range ck.DieSeverity {
			res.DieSeverity[i] = append([]float64(nil), s...)
		}
	}
	if res.UnitSeverity != nil {
		for name := range res.UnitSeverity {
			res.UnitSeverity[name] = append([]float64(nil), ck.UnitSeverity[name]...)
		}
	}
	if res.HotspotUnit != nil {
		for k, n := range ck.HotspotUnit {
			res.HotspotUnit[k] = n
		}
	}
	// Fast-forward the performance models over the completed steps by
	// replaying their exact Step sequence: sources are deterministic, so
	// a stateful model (the cycle model's caches, branch predictor and
	// instruction stream) lands in the same state the original run had —
	// at perf-stage cost only, skipping power, thermal and detection.
	for s := 0; s < ck.StepsDone; s++ {
		src.Step(s, cfg.CyclesPerStep)
		for _, sec := range secondary {
			sec.Step(s, cfg.CyclesPerStep)
		}
	}
	m.resumes.Inc()
	return ck.StepsDone
}
