package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"hotgauge/internal/fault"
	"hotgauge/internal/obs"
	"hotgauge/internal/thermal"
)

// memCheckpointer is an in-memory Checkpointer with operation counters
// and an injectable save failure.
type memCheckpointer struct {
	ck            *Checkpoint
	saves, clears int
	failSave      error
	failLoad      error
}

func (m *memCheckpointer) Load() (*Checkpoint, error) {
	if m.failLoad != nil {
		return nil, m.failLoad
	}
	return m.ck, nil
}

func (m *memCheckpointer) Save(ck *Checkpoint) error {
	m.saves++
	if m.failSave != nil {
		return m.failSave
	}
	m.ck = ck
	return nil
}

func (m *memCheckpointer) Clear() error {
	m.clears++
	m.ck = nil
	return nil
}

// noSleep makes retry backoff instantaneous.
func noSleep(context.Context, time.Duration) error { return nil }

// sameSeries asserts two float series are bit-identical.
func sameSeries(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (resume not bit-identical)", name, i, got[i], want[i])
		}
	}
}

// assertSameResult compares every recorded series and summary field of a
// resumed run against the uninterrupted baseline.
func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.StepsRun != want.StepsRun {
		t.Fatalf("StepsRun = %d, want %d", got.StepsRun, want.StepsRun)
	}
	if got.TUH != want.TUH || got.TUHStep != want.TUHStep {
		t.Fatalf("TUH = %v/%d, want %v/%d", got.TUH, got.TUHStep, want.TUH, want.TUHStep)
	}
	if got.InitialTemp != want.InitialTemp {
		t.Fatalf("InitialTemp = %v, want %v", got.InitialTemp, want.InitialTemp)
	}
	if len(got.FirstHotspots) != len(want.FirstHotspots) {
		t.Fatalf("FirstHotspots = %d, want %d", len(got.FirstHotspots), len(want.FirstHotspots))
	}
	sameSeries(t, "MaxTemp", got.MaxTemp, want.MaxTemp)
	sameSeries(t, "MeanTemp", got.MeanTemp, want.MeanTemp)
	sameSeries(t, "Power", got.Power, want.Power)
	sameSeries(t, "IPC", got.IPC, want.IPC)
	sameSeries(t, "MLTD", got.MLTD, want.MLTD)
	sameSeries(t, "Severity", got.Severity, want.Severity)
	if len(got.TempPcts) != len(want.TempPcts) {
		t.Fatalf("TempPcts length %d, want %d", len(got.TempPcts), len(want.TempPcts))
	}
	for i := range want.TempPcts {
		if got.TempPcts[i] != want.TempPcts[i] {
			t.Fatalf("TempPcts[%d] = %v, want %v", i, got.TempPcts[i], want.TempPcts[i])
		}
	}
}

// ckptConfig is fastConfig with the full set of checkpointable series
// enabled.
func ckptConfig(t *testing.T, steps int) Config {
	cfg := fastConfig(t, "gcc", steps)
	cfg.Record = RecordOptions{MLTD: true, Severity: true, TempPercentiles: true}
	return cfg
}

// TestCheckpointResumeBitIdentical is the equivalence property the whole
// checkpoint layer hangs on: a run killed at a (varied) mid-flight step
// by an injected transient fault, retried with its checkpoint, produces
// exactly the series an uninterrupted run produces — bit-identical for
// both stock solvers, whose adaptation is stateless across Step calls.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const steps = 12
	for _, solver := range []func() thermal.Solver{
		func() thermal.Solver { return &thermal.Explicit{} },
		func() thermal.Solver { return &thermal.ADI{} },
	} {
		t.Run(solver().Name(), func(t *testing.T) {
			ref := ckptConfig(t, steps)
			ref.Solver = solver()
			base, err := Run(ref)
			if err != nil {
				t.Fatal(err)
			}

			// Solver call n is step n-1 (cold warmup makes no solver
			// calls), so these cover a kill before the first snapshot,
			// between snapshots, and on the last step.
			for _, errorAt := range []int{2, 5, 7, 12} {
				reg := obs.NewRegistry()
				mem := &memCheckpointer{}
				cfg := ckptConfig(t, steps)
				cfg.Obs = reg
				cfg.Checkpoint = mem
				cfg.CheckpointEvery = 3
				cfg.Solver = &fault.FlakySolver{Inner: solver(), ErrorAt: errorAt}

				res, err := RunWithRetry(context.Background(), cfg, RetryPolicy{
					MaxAttempts: 2,
					Sleep:       noSleep,
				})
				if err != nil {
					t.Fatalf("errorAt=%d: retried run failed: %v", errorAt, err)
				}
				assertSameResult(t, res, base)

				snap := reg.Snapshot()
				if snap.Counters[MetricRetries] != 1 {
					t.Fatalf("errorAt=%d: sim/retries = %d, want 1", errorAt, snap.Counters[MetricRetries])
				}
				// A fault striking after the first snapshot must resume,
				// not restart: the first attempt completed errorAt-1
				// steps, so a snapshot exists from step 3 on.
				wantResume := int64(0)
				if errorAt-1 >= cfg.CheckpointEvery {
					wantResume = 1
				}
				if snap.Counters[MetricResumes] != wantResume {
					t.Fatalf("errorAt=%d: sim/resumes = %d, want %d",
						errorAt, snap.Counters[MetricResumes], wantResume)
				}
				// The finished run cleared its checkpoint: a repeat
				// submission of the same config starts from t=0.
				if mem.ck != nil || mem.clears == 0 {
					t.Fatalf("errorAt=%d: checkpoint not cleared on success (clears=%d)", errorAt, mem.clears)
				}
			}
		})
	}
}

// TestCheckpointResumeCycleModel proves the fast-forward replay lands
// the stateful cycle model (caches, branch predictor, instruction
// stream) in the same state the original run had.
func TestCheckpointResumeCycleModel(t *testing.T) {
	const steps = 8
	mk := func() Config {
		cfg := ckptConfig(t, steps)
		cfg.UseCycleModel = true
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := mk()
	cfg.Obs = reg
	cfg.Checkpoint = &memCheckpointer{}
	cfg.CheckpointEvery = 2
	cfg.Solver = &fault.FlakySolver{Inner: &thermal.ADI{}, ErrorAt: 6}

	res, err := RunWithRetry(context.Background(), cfg, RetryPolicy{
		MaxAttempts: 2,
		Sleep:       noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, base)
	if reg.Snapshot().Counters[MetricResumes] != 1 {
		t.Fatal("cycle-model retry did not resume from its checkpoint")
	}
}

// TestCheckpointSavesCounted pins the snapshot cadence: every
// CheckpointEvery completed steps, skipping the final step (a run about
// to finish has nothing to resume).
func TestCheckpointSavesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	mem := &memCheckpointer{}
	cfg := ckptConfig(t, 6)
	cfg.Obs = reg
	cfg.Checkpoint = mem
	cfg.CheckpointEvery = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if mem.saves != 2 { // after steps 2 and 4; step 6 is the finish line
		t.Fatalf("saves = %d, want 2", mem.saves)
	}
	if got := reg.Snapshot().Counters[MetricCheckpoints]; got != 2 {
		t.Fatalf("sim/checkpoints = %d, want 2", got)
	}
	if mem.ck != nil {
		t.Fatal("checkpoint survived a successful run")
	}
}

// TestCheckpointMismatchIgnored: a stale snapshot from a different
// config shape restarts from t=0 instead of corrupting the run.
func TestCheckpointMismatchIgnored(t *testing.T) {
	base, err := Run(ckptConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mem := &memCheckpointer{ck: &Checkpoint{
		StepsDone: 3, TotalSteps: 99, Cells: 1, Temps: []float64{1000},
		MaxTemp: []float64{1, 2, 3}, MeanTemp: []float64{1, 2, 3},
		Power: []float64{1, 2, 3}, IPC: []float64{1, 2, 3},
	}}
	cfg := ckptConfig(t, 6)
	cfg.Obs = reg
	cfg.Checkpoint = mem
	cfg.CheckpointEvery = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, base)
	if got := reg.Snapshot().Counters[MetricResumes]; got != 0 {
		t.Fatalf("sim/resumes = %d for a mismatched checkpoint, want 0", got)
	}
}

// TestCheckpointSinkFailuresNonFatal: a broken checkpoint sink degrades
// durability, never correctness.
func TestCheckpointSinkFailuresNonFatal(t *testing.T) {
	base, err := Run(ckptConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mem := &memCheckpointer{
		failSave: errors.New("disk full"),
		failLoad: errors.New("disk on fire"),
	}
	cfg := ckptConfig(t, 6)
	cfg.Obs = reg
	cfg.Checkpoint = mem
	cfg.CheckpointEvery = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run failed on a broken checkpoint sink: %v", err)
	}
	assertSameResult(t, res, base)
	if got := reg.Snapshot().Counters[MetricCheckpointErrors]; got < 3 {
		// 1 failed load + 2 failed saves (Clear succeeds).
		t.Fatalf("sim/checkpoint_errors = %d, want >= 3", got)
	}
}

// TestHashIgnoresCheckpointFields: the checkpoint seam is operational,
// like MaxWallTime — it must not perturb the content address the result
// cache and store key on.
func TestHashIgnoresCheckpointFields(t *testing.T) {
	plain := ckptConfig(t, 6)
	h1, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ck := ckptConfig(t, 6)
	ck.Checkpoint = &memCheckpointer{}
	ck.CheckpointEvery = 4
	h2, err := ck.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("checkpoint fields changed the config hash: %s vs %s", h1, h2)
	}
}

// TestCheckpointConfigGating: combinations the snapshot cannot represent
// are rejected up front rather than resuming wrongly.
func TestCheckpointConfigGating(t *testing.T) {
	cfg := ckptConfig(t, 6)
	cfg.Checkpoint = &memCheckpointer{}
	cfg.CheckpointEvery = 2
	cfg.Record.CellDeltas = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Checkpoint + CellDeltas accepted")
	}

	cfg = ckptConfig(t, 6)
	cfg.Checkpoint = &memCheckpointer{}
	cfg.Record.FieldEvery = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("Checkpoint + FieldEvery accepted")
	}

	cfg = ckptConfig(t, 6)
	cfg.Checkpoint = &memCheckpointer{}
	cfg.Controller = &cancelAfter{steps: 99, cancel: func() {}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Checkpoint + Controller accepted")
	}
}
