package sim

import (
	"math"
	"testing"

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
	ref := fastConfig(t, "gcc", 5)
	ref.Solver = &thermal.Explicit{}
	explicit, err := Run(ref)
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
