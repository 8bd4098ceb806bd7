package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"hotgauge/internal/obs"
)

// Default triage policy knobs. The severity threshold is the paper's
// mitigation point — sev ≥ 0.5 means "mitigation required now" — and the
// guard band / audit fraction defaults match Config.TriageBand and
// Config.AuditFrac.
const (
	// DefaultSeverityThreshold is the severity at which a run counts as a
	// hotspot for triage purposes (sev = 0.5, the immediate-mitigation
	// point of the paper's severity scale).
	DefaultSeverityThreshold = 0.5
	// DefaultTriageBand is the guard band below the threshold within
	// which predicted runs are exact-verified anyway.
	DefaultTriageBand = 0.1
	// DefaultAuditFraction is the fraction of confidently-skippable runs
	// that execute exactly regardless, to measure predicted-vs-exact
	// error.
	DefaultAuditFraction = 0.1
	// DefaultMinConfidence is the prediction confidence below which the
	// prediction is distrusted and the run executes exactly.
	DefaultMinConfidence = 0.5
)

// Prediction is a surrogate model's estimate for one run.
type Prediction struct {
	// Severity is the predicted peak hotspot severity over the run
	// (clipped to [0, 1] like the exact metric).
	Severity float64 `json:"severity"`
	// TUHSeconds is the predicted time-until-hotspot [s]; negative means
	// no hotspot is predicted within the run.
	TUHSeconds float64 `json:"tuh_seconds"`
	// Confidence is the model's self-assessed reliability in [0, 1]:
	// near 1 when the query sits on top of dense, internally consistent
	// training data, falling toward 0 as the model extrapolates.
	Confidence float64 `json:"confidence"`
}

// Predictor scores a config without running the pipeline. Implementations
// must be safe for concurrent use (campaigns score from worker
// goroutines) and deterministic: the same config must always yield the
// same prediction. internal/surrogate provides the stock implementation.
type Predictor interface {
	Predict(cfg Config) (Prediction, error)
}

// TriageOptions configures predict-first triage (see Triager).
type TriageOptions struct {
	// Predictor scores configs; nil disables triage entirely.
	Predictor Predictor
	// Threshold is the severity classifying a run as a hotspot
	// (0 = DefaultSeverityThreshold).
	Threshold float64
	// MinConfidence is the confidence below which a prediction is
	// distrusted and the run executes exactly (0 = DefaultMinConfidence).
	MinConfidence float64
}

// TriageDecision is the outcome of scoring one config.
type TriageDecision struct {
	// Prediction is the surrogate's estimate (nil when prediction
	// failed and the run falls back to exact execution).
	Prediction *Prediction
	// ExactRun reports whether the full pipeline must execute.
	ExactRun bool
	// Audit marks an exact run selected only by the audit fraction: its
	// exact result is compared against the prediction to measure error.
	Audit bool
	// Reason explains the decision: "frontier" (predicted severity within
	// the guard band of the threshold), "low_confidence", "audit",
	// "predict_error", or "skip" (predicted-only).
	Reason string
}

// Triager applies the triage policy and accounts for its outcomes: it
// resolves per-config guard bands and audit fractions, records the
// surrogate/* metrics, and accumulates the predicted-vs-exact audit
// error. Safe for concurrent use; one Triager may span many campaigns
// (the daemon holds one for its lifetime).
type Triager struct {
	opts TriageOptions

	predictions, predictErrors *obs.Counter
	exactRuns, skippedRuns     *obs.Counter
	auditRuns                  *obs.Counter
	auditErrG                  *obs.Gauge

	mu       sync.Mutex
	auditSum float64
	auditN   int
}

// NewTriager builds a Triager recording into reg (nil disables metrics).
func NewTriager(opts TriageOptions, reg *obs.Registry) *Triager {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultSeverityThreshold
	}
	if opts.MinConfidence <= 0 {
		opts.MinConfidence = DefaultMinConfidence
	}
	return &Triager{
		opts:          opts,
		predictions:   reg.Counter(MetricSurrogatePredictions),
		predictErrors: reg.Counter(MetricSurrogatePredictErrors),
		exactRuns:     reg.Counter(MetricSurrogateExactRuns),
		skippedRuns:   reg.Counter(MetricSurrogateSkippedRuns),
		auditRuns:     reg.Counter(MetricSurrogateAuditRuns),
		auditErrG:     reg.Gauge(MetricSurrogateAuditError),
	}
}

// Threshold returns the resolved hotspot-severity threshold.
func (t *Triager) Threshold() float64 { return t.opts.Threshold }

// Score applies the triage policy to one campaign's configs and returns
// a decision per config, in order. The policy is one-sided and
// conservative: a run executes exactly when its predicted severity
// reaches threshold − band (every predicted hotspot, plus the guard band
// below it), when the prediction's confidence is below MinConfidence,
// when prediction fails outright, or when the campaign's audit draw
// selects it. Only runs the model confidently places clearly below the
// threshold are skipped.
func (t *Triager) Score(cfgs []Config) []TriageDecision {
	ds := make([]TriageDecision, len(cfgs))
	var skippable []auditCandidate
	for i, cfg := range cfgs {
		p, err := t.opts.Predictor.Predict(cfg)
		if err != nil {
			t.predictErrors.Inc()
			ds[i] = TriageDecision{ExactRun: true, Reason: "predict_error"}
			continue
		}
		t.predictions.Inc()
		band := cfg.TriageBand
		if band == 0 {
			band = DefaultTriageBand
		} else if band < 0 {
			band = 0
		}
		ds[i] = TriageDecision{Prediction: &p, Reason: "skip"}
		switch {
		case p.Confidence < t.opts.MinConfidence:
			ds[i].ExactRun, ds[i].Reason = true, "low_confidence"
		case p.Severity >= t.opts.Threshold-band:
			ds[i].ExactRun, ds[i].Reason = true, "frontier"
		default:
			skippable = append(skippable, auditCandidate{idx: i, cfg: cfg})
		}
	}
	for _, i := range auditSelect(skippable) {
		ds[i].ExactRun, ds[i].Audit, ds[i].Reason = true, true, "audit"
	}
	for _, d := range ds {
		if !d.ExactRun {
			t.skippedRuns.Inc()
			continue
		}
		t.exactRuns.Inc()
		if d.Audit {
			t.auditRuns.Inc()
		}
	}
	return ds
}

// PredictedResult materializes a predicted-only Result for a skipped
// run: no series, StepsRun 0, Predicted set, with the prediction
// attached. TUH mirrors the prediction (+Inf when no hotspot is
// predicted) so downstream consumers read it uniformly.
func (t *Triager) PredictedResult(cfg Config, d TriageDecision) *Result {
	res := &Result{Config: cfg, Predicted: true, Prediction: d.Prediction, TUH: math.Inf(1), TUHStep: -1}
	if d.Prediction != nil && d.Prediction.TUHSeconds >= 0 {
		res.TUH = d.Prediction.TUHSeconds
	}
	return res
}

// ObserveExact attaches the decision's prediction to an exact result
// and, for audit-selected runs with a recorded severity series, scores
// the prediction against the exact peak severity. It returns the
// absolute severity error and whether it was scored.
func (t *Triager) ObserveExact(d TriageDecision, res *Result) (absErr float64, scored bool) {
	if res == nil || d.Prediction == nil {
		return 0, false
	}
	res.Prediction = d.Prediction
	res.Audited = d.Audit
	if !d.Audit || len(res.Severity) == 0 {
		return 0, false
	}
	exact := 0.0
	for _, s := range res.Severity {
		exact = math.Max(exact, s)
	}
	absErr = math.Abs(d.Prediction.Severity - exact)
	t.RecordAuditError(absErr)
	return absErr, true
}

// RecordAuditError folds one |predicted − exact| severity error into the
// running audit MAE (exposed as the surrogate/audit_error gauge).
func (t *Triager) RecordAuditError(absErr float64) {
	t.mu.Lock()
	t.auditSum += absErr
	t.auditN++
	mae := t.auditSum / float64(t.auditN)
	t.mu.Unlock()
	t.auditErrG.Set(mae)
}

// AuditMAE returns the mean absolute predicted-vs-exact severity error
// over the audited runs observed so far, and how many there were.
func (t *Triager) AuditMAE() (mae float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.auditN == 0 {
		return 0, 0
	}
	return t.auditSum / float64(t.auditN), t.auditN
}

// auditCandidate is a confidently-skippable config awaiting the audit
// draw, with its index in the scored campaign.
type auditCandidate struct {
	idx int
	cfg Config
}

// auditSelect makes a campaign's deterministic audit draw over its
// skippable configs and returns the campaign indices it selects, in
// order. The draw is systematic sampling in content-address order: a
// running sum of the candidates' audit fractions starts at an offset in
// [0, 1) folded from the sorted addresses, and a candidate is audited
// when its fraction carries the sum across an integer. Each config is
// still audited with probability equal to its fraction, but the count
// is pinned to the floor or ceiling of the fractions' sum, where an
// independent per-config draw would swing by about √n with the hash
// bits. The selection depends only on the set of configs, not on their
// order, process or node. A config that cannot hash is conservatively
// selected — it will execute exactly.
func auditSelect(cands []auditCandidate) []int {
	type draw struct {
		idx  int
		hash string
		frac float64
	}
	var picked []int
	draws := make([]draw, 0, len(cands))
	for _, c := range cands {
		h, err := c.cfg.Hash()
		if err != nil {
			picked = append(picked, c.idx)
			continue
		}
		frac := c.cfg.AuditFrac
		if frac == 0 {
			frac = DefaultAuditFraction
		}
		draws = append(draws, draw{idx: c.idx, hash: h, frac: math.Max(0, math.Min(frac, 1))})
	}
	sort.Slice(draws, func(a, b int) bool {
		if draws[a].hash != draws[b].hash {
			return draws[a].hash < draws[b].hash
		}
		return draws[a].idx < draws[b].idx
	})
	f := fnv.New64a()
	for _, d := range draws {
		fmt.Fprintf(f, "audit/%s", d.hash)
	}
	const span = 1 << 53
	sum := float64(f.Sum64()%span) / float64(span)
	for _, d := range draws {
		next := sum + d.frac
		if math.Floor(next) > math.Floor(sum) {
			picked = append(picked, d.idx)
		}
		sum = next
	}
	sort.Ints(picked)
	return picked
}
