package main

import (
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/workload"
)

func TestParseScale(t *testing.T) {
	m, err := parseScale("fpIWin=10,RAT_INT=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if m[floorplan.KindFpIWin] != 10 || m[floorplan.Kind("RAT_INT")] != 2.5 {
		t.Fatalf("parsed %v", m)
	}
	if m, err := parseScale(""); err != nil || m != nil {
		t.Fatalf("empty scale: %v %v", m, err)
	}
	for _, bad := range []string{"fpIWin", "fpIWin=", "fpIWin=abc", "=3"} {
		if _, err := parseScale(bad); err == nil && bad != "=3" {
			t.Errorf("bad entry %q accepted", bad)
		}
	}
}

// fixedPredictor returns one canned prediction for every config.
type fixedPredictor sim.Prediction

func (p fixedPredictor) Predict(sim.Config) (sim.Prediction, error) { return sim.Prediction(p), nil }

// TestTriageSkipsOrSimulates drives the -surrogate path: a confident
// cold prediction resolves predicted-only without simulating, while a
// frontier prediction simulates exactly and carries its prediction.
func TestTriageSkipsOrSimulates(t *testing.T) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := sim.Config{
		Floorplan:  floorplan.Config{Node: tech.Node7},
		Workload:   prof,
		Steps:      4,
		Resolution: 0.2,
		Surrogate:  true,
		AuditFrac:  -1, // no audit draw: the split is decided by the prediction alone
		Obs:        reg,
	}

	cold, err := triage(cfg, fixedPredictor{Severity: 0.05, TUHSeconds: -1, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Predicted || cold.StepsRun != 0 || cold.Prediction == nil {
		t.Fatalf("cold run: Predicted=%v StepsRun=%d, want a predicted-only result", cold.Predicted, cold.StepsRun)
	}

	hot, err := triage(cfg, fixedPredictor{Severity: 0.95, TUHSeconds: 0.001, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Predicted || hot.StepsRun != 4 {
		t.Fatalf("frontier run: Predicted=%v StepsRun=%d, want an exact 4-step run", hot.Predicted, hot.StepsRun)
	}
	if hot.Prediction == nil || hot.Prediction.Severity != 0.95 {
		t.Errorf("exact run lost its prediction annotation: %+v", hot.Prediction)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		sim.MetricSurrogateSkippedRuns: 1,
		sim.MetricSurrogateExactRuns:   1,
		sim.MetricRuns:                 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
