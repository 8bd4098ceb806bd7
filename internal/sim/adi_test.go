package sim

import (
	"context"
	"math"
	"testing"

	"hotgauge/internal/fault"
	"hotgauge/internal/obs"
	"hotgauge/internal/thermal"
)

func TestADISolverPathWorks(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Solver = &thermal.ADI{}
	cfg.Obs = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(fastConfig(t, "gcc", 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.MaxTemp {
		// ADI bounds the added error per step by ErrTol (default 0.1 °C);
		// the remaining gap to explicit forward Euler is the two schemes'
		// O(dt) discretization difference.
		if math.Abs(res.MaxTemp[i]-explicit.MaxTemp[i]) > 2.0 {
			t.Fatalf("solvers diverge at step %d: %v vs %v", i, res.MaxTemp[i], explicit.MaxTemp[i])
		}
	}
	// instrumentSolver wired the bare ADI's counters into the registry.
	s := cfg.Obs.Snapshot()
	if got := s.Counters[MetricThermalSubsteps]; got < int64(res.StepsRun) {
		t.Errorf("%s = %d, want >= %d", MetricThermalSubsteps, got, res.StepsRun)
	}
	if got := s.Counters[MetricThermalADISaved]; got <= 0 {
		t.Errorf("%s = %d, want > 0 (ADI should beat the explicit substep count)", MetricThermalADISaved, got)
	}
}

// TestADICheckpointResumeBitIdentical extends the checkpoint equivalence
// property to the ADI solver: its adaptation is stateless across Step
// calls, so a run killed mid-flight and resumed from a snapshot must
// reproduce the uninterrupted series exactly.
func TestADICheckpointResumeBitIdentical(t *testing.T) {
	const steps = 12
	base := ckptConfig(t, steps)
	base.Solver = &thermal.ADI{}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, errorAt := range []int{2, 5, 12} {
		reg := obs.NewRegistry()
		mem := &memCheckpointer{}
		cfg := ckptConfig(t, steps)
		cfg.Obs = reg
		cfg.Checkpoint = mem
		cfg.CheckpointEvery = 3
		cfg.Solver = &fault.FlakySolver{Inner: &thermal.ADI{}, ErrorAt: errorAt}

		res, err := RunWithRetry(context.Background(), cfg, RetryPolicy{
			MaxAttempts: 2,
			Sleep:       noSleep,
		})
		if err != nil {
			t.Fatalf("errorAt=%d: retried run failed: %v", errorAt, err)
		}
		assertSameResult(t, res, want)
		if errorAt-1 >= cfg.CheckpointEvery {
			if got := reg.Snapshot().Counters[MetricResumes]; got != 1 {
				t.Fatalf("errorAt=%d: sim/resumes = %d, want 1", errorAt, got)
			}
		}
	}
}
