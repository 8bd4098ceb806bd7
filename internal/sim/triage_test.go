package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hotgauge/internal/obs"
)

// fakePredictor returns canned predictions keyed by ambient temperature
// (a convenient scalar the tests can vary per config).
type fakePredictor struct {
	byAmbient map[float64]Prediction
	err       error
}

func (f *fakePredictor) Predict(cfg Config) (Prediction, error) {
	if f.err != nil {
		return Prediction{}, f.err
	}
	p, ok := f.byAmbient[cfg.Ambient]
	if !ok {
		return Prediction{Severity: 0, TUHSeconds: -1, Confidence: 1}, nil
	}
	return p, nil
}

func TestTriageScoreReasons(t *testing.T) {
	pred := &fakePredictor{byAmbient: map[float64]Prediction{
		41: {Severity: 0.9, TUHSeconds: 0.001, Confidence: 0.95}, // hotspot
		42: {Severity: 0.45, TUHSeconds: -1, Confidence: 0.95},   // inside guard band
		43: {Severity: 0.1, TUHSeconds: -1, Confidence: 0.2},     // low confidence
		44: {Severity: 0.1, TUHSeconds: -1, Confidence: 0.95},    // clear skip
	}}
	tr := NewTriager(TriageOptions{Predictor: pred}, nil)

	cases := []struct {
		ambient   float64
		exact     bool
		reason    string
		auditFrac float64
	}{
		{41, true, "frontier", -1},
		{42, true, "frontier", -1},
		{43, true, "low_confidence", -1},
		{44, false, "skip", -1},
	}
	for _, c := range cases {
		cfg := fastConfig(t, "gcc", 5)
		cfg.Ambient = c.ambient
		cfg.Surrogate = true
		cfg.AuditFrac = c.auditFrac // negative disables the audit draw
		d := tr.Score([]Config{cfg})[0]
		if d.ExactRun != c.exact || d.Reason != c.reason {
			t.Errorf("ambient %.0f: got (exact=%v, reason=%q), want (exact=%v, reason=%q)",
				c.ambient, d.ExactRun, d.Reason, c.exact, c.reason)
		}
		if d.Prediction == nil {
			t.Errorf("ambient %.0f: decision lost its prediction", c.ambient)
		}
	}
}

func TestTriageScorePredictError(t *testing.T) {
	tr := NewTriager(TriageOptions{Predictor: &fakePredictor{err: errors.New("boom")}}, nil)
	cfg := fastConfig(t, "gcc", 5)
	cfg.Surrogate = true
	d := tr.Score([]Config{cfg})[0]
	if !d.ExactRun || d.Reason != "predict_error" || d.Prediction != nil {
		t.Fatalf("predict failure must fall back to exact: %+v", d)
	}
}

func TestAuditSelectDeterministic(t *testing.T) {
	base := fastConfig(t, "gcc", 5)
	base.Surrogate = true
	campaign := func(n int, frac float64) []auditCandidate {
		cands := make([]auditCandidate, n)
		for i := range cands {
			c := base
			c.Ambient = 40 + float64(i)*0.01
			c.AuditFrac = frac
			cands[i] = auditCandidate{idx: i, cfg: c}
		}
		return cands
	}

	// The selection is a function of the set of configs, not their order.
	cands := campaign(40, 0.2)
	first := auditSelect(cands)
	rev := make([]auditCandidate, len(cands))
	for i, c := range cands {
		rev[len(cands)-1-i] = c
	}
	if got := auditSelect(rev); fmt.Sprint(got) != fmt.Sprint(first) {
		t.Fatalf("audit draw depends on order: %v vs %v", got, first)
	}
	if n := len(auditSelect(campaign(40, -1))); n != 0 {
		t.Errorf("negative fraction selected %d runs", n)
	}
	if n := len(auditSelect(campaign(40, 1))); n != 40 {
		t.Errorf("fraction 1 selected %d of 40 runs", n)
	}

	// The count is pinned to within one of n·frac, whatever the hash bits.
	for n := 1; n <= 60; n++ {
		for _, frac := range []float64{0.1, 0.2, 0.25, 0.5} {
			got := len(auditSelect(campaign(n, frac)))
			want := float64(n) * frac
			if float64(got) < math.Floor(want+1e-9) || float64(got) > math.Ceil(want-1e-9) {
				t.Fatalf("n=%d frac=%.2f: %d audited, want ⌊%.2f⌋ or ⌈%.2f⌉", n, frac, got, want, want)
			}
		}
	}

	// One config alone is audited with probability equal to its fraction.
	hits := 0
	const n, frac = 400, 0.25
	for _, c := range campaign(n, frac) {
		if len(auditSelect([]auditCandidate{c})) == 1 {
			hits++
		}
	}
	if rate := float64(hits) / n; rate < frac/2 || rate > frac*2 {
		t.Fatalf("single-config audit rate %.3f far from fraction %.2f", rate, frac)
	}
}

func TestPredictedResultShape(t *testing.T) {
	tr := NewTriager(TriageOptions{Predictor: &fakePredictor{}}, nil)
	cfg := fastConfig(t, "gcc", 5)

	p := Prediction{Severity: 0.2, TUHSeconds: -1, Confidence: 0.9}
	res := tr.PredictedResult(cfg, TriageDecision{Prediction: &p})
	if !res.Predicted || res.StepsRun != 0 || len(res.Severity) != 0 {
		t.Fatalf("predicted result ran the pipeline: %+v", res)
	}
	if !math.IsInf(res.TUH, 1) || res.TUHStep != -1 {
		t.Fatalf("no-hotspot prediction must leave TUH at +Inf: TUH=%v step=%d", res.TUH, res.TUHStep)
	}

	p2 := Prediction{Severity: 0.8, TUHSeconds: 0.0025, Confidence: 0.9}
	res2 := tr.PredictedResult(cfg, TriageDecision{Prediction: &p2})
	if res2.TUH != 0.0025 {
		t.Fatalf("predicted TUH not propagated: %v", res2.TUH)
	}
}

func TestObserveExactAuditError(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTriager(TriageOptions{Predictor: &fakePredictor{}}, reg)

	p := Prediction{Severity: 0.3, TUHSeconds: -1, Confidence: 0.9}
	res := &Result{Severity: []float64{0.1, 0.45, 0.2}}
	absErr, scored := tr.ObserveExact(TriageDecision{Prediction: &p, Audit: true, ExactRun: true}, res)
	if !scored || math.Abs(absErr-0.15) > 1e-12 {
		t.Fatalf("audit error = %v (scored=%v), want 0.15", absErr, scored)
	}
	if res.Prediction == nil || !res.Audited {
		t.Fatal("exact result not annotated with its prediction")
	}
	mae, n := tr.AuditMAE()
	if n != 1 || math.Abs(mae-0.15) > 1e-12 {
		t.Fatalf("AuditMAE = (%v, %d)", mae, n)
	}

	// Non-audit observations annotate but do not score.
	res2 := &Result{Severity: []float64{0.9}}
	if _, scored := tr.ObserveExact(TriageDecision{Prediction: &p, ExactRun: true}, res2); scored {
		t.Fatal("non-audit run was scored")
	}
	if res2.Prediction == nil || res2.Audited {
		t.Fatalf("non-audit annotation wrong: %+v", res2)
	}
}

func TestHashUnchangedByInertTriageKnobs(t *testing.T) {
	base := fastConfig(t, "gcc", 5)
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Without Surrogate the triage knobs are normalized away and must not
	// perturb the content hash of existing stored results.
	knobbed := base
	knobbed.TriageBand = 0.2
	knobbed.AuditFrac = 0.5
	h2, err := knobbed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("inert triage knobs changed the config hash")
	}

	sur := base
	sur.Surrogate = true
	h3, err := sur.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("Surrogate flag did not change the config hash")
	}
	band := sur
	band.TriageBand = 0.2
	h4, err := band.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h3 {
		t.Fatal("TriageBand did not change a surrogate config's hash")
	}
}
