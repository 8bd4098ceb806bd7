package main

import (
	"encoding/json"
	"strings"
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
	if m[string(floorplan.KindFpIWin)] != 10 || m["RAT_INT"] != 2.5 {
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

// flagDefaults is the options value of a bare invocation: every flag at
// its registered default.
func flagDefaults() options {
	return options{
		workload: "gcc", node: 7, warmup: "idle", steps: 100,
		tempTh: 80, mltdTh: 25, radius: 1.0, heatmap: true,
	}
}

// TestCLIAndDaemonAgree pins that the CLI and the daemon describe a run
// the same way: the config the CLI builds from a flag set hashes equal
// to the one hotgauged materializes from the same values on the wire
// (the CLI's own Record choice aside, which no wire field expresses).
func TestCLIAndDaemonAgree(t *testing.T) {
	cases := []struct {
		name string
		set  func(o *options)
		wire string
	}{
		{"defaults", func(o *options) {},
			`{"workload":"gcc","node":7,"steps":100}`},
		{"cold-adi-stacked", func(o *options) {
			o.node, o.warmup, o.solver, o.solverTol, o.stack = 14, "cold", "adi", 0.05, "memory-on-core"
		}, `{"workload":"gcc","node":14,"warmup":"cold","steps":100,"solver":"adi","solver_tol":0.05,"stack":"memory-on-core"}`},
		{"mitigation-thresholds", func(o *options) {
			o.node, o.scaleUnit, o.tempTh, o.mltdTh, o.radius = 10, "fpIWin=10,RAT_INT=2", 85, 20, 0.5
		}, `{"workload":"gcc","node":10,"steps":100,"scale_unit":{"fpIWin":10,"RAT_INT":2},"temp_threshold":85,"mltd_threshold":20,"radius":0.5}`},
		{"partial-definition", func(o *options) { o.tempTh = 0 },
			`{"workload":"gcc","node":7,"steps":100,"mltd_threshold":25}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := flagDefaults()
			tc.set(&o)
			cli, err := o.config()
			if err != nil {
				t.Fatal(err)
			}
			var spec sim.Spec
			if err := json.Unmarshal([]byte(tc.wire), &spec); err != nil {
				t.Fatal(err)
			}
			daemon, err := spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			daemon.Record = cli.Record
			hc, err := cli.Hash()
			if err != nil {
				t.Fatal(err)
			}
			hd, err := daemon.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if hc != hd {
				t.Errorf("CLI config hashes %s, the daemon's %s", hc, hd)
			}
		})
	}
}

// TestCLIRejectsUnknownNode: an unsupported node fails with the spec's
// error rather than running another generation's physics under its
// label.
func TestCLIRejectsUnknownNode(t *testing.T) {
	o := flagDefaults()
	o.node = 22
	_, err := o.config()
	if err == nil || !strings.Contains(err.Error(), "unknown node 22") {
		t.Fatalf("-node 22: err = %v, want the spec's unknown-node error", err)
	}
}
