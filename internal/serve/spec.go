package serve

import (
	"math"

	"hotgauge/internal/sim"
)

// ConfigSpec is the JSON wire form of one run: sim.Spec under the name
// the journal, the RunView payloads and the benchmark clients use. The
// daemon folds its Options defaults into every submitted spec with
// sim.Spec.WithDefaults before hashing.
type ConfigSpec = sim.Spec

// HotspotView is the wire form of one detected hotspot.
type HotspotView struct {
	X    float64 `json:"x_mm"`
	Y    float64 `json:"y_mm"`
	Temp float64 `json:"temp_c"`
	MLTD float64 `json:"mltd_c"`
}

// RunView is the wire form of one run's result. It is marshaled exactly
// once per simulated run; the bytes are stored in the result cache and
// served verbatim, so repeated submissions return byte-identical bodies.
type RunView struct {
	Spec       ConfigSpec `json:"spec"`
	ConfigHash string     `json:"config_hash"`
	StepsRun   int        `json:"steps_run"`

	// TUHSeconds is nil when no hotspot occurred (TUHStep is then -1);
	// JSON has no +Inf.
	TUHSeconds *float64 `json:"tuh_seconds,omitempty"`
	TUHStep    int      `json:"tuh_step"`

	InitialTempC float64 `json:"initial_temp_c"`
	PeakTempC    float64 `json:"peak_temp_c"`
	FinalTempC   float64 `json:"final_temp_c"`
	PeakPowerW   float64 `json:"peak_power_w"`
	MeanIPC      float64 `json:"mean_ipc"`
	PeakMLTDC    float64 `json:"peak_mltd_c,omitempty"`
	PeakSeverity float64 `json:"peak_severity,omitempty"`

	MaxTempC  []float64 `json:"max_temp_c"`
	MeanTempC []float64 `json:"mean_temp_c"`
	PowerW    []float64 `json:"power_w"`
	IPC       []float64 `json:"ipc"`
	MLTDC     []float64 `json:"mltd_c,omitempty"`
	Severity  []float64 `json:"severity,omitempty"`

	HotspotUnits  map[string]int `json:"hotspot_units,omitempty"`
	FirstHotspots []HotspotView  `json:"first_hotspots,omitempty"`

	// Per-die series, present only on stacked runs (all omitempty, so
	// single-die payloads keep their exact legacy bytes). DieLabels names
	// the active planes bottom-up; DieMaxTempC/DieSeverity index by die
	// then step; MemPowerW is the memory die's power per step.
	DieLabels   []string    `json:"die_labels,omitempty"`
	DieMaxTempC [][]float64 `json:"die_max_temp_c,omitempty"`
	DieSeverity [][]float64 `json:"die_severity,omitempty"`
	MemPowerW   []float64   `json:"mem_power_w,omitempty"`

	// Predicted marks a run resolved by surrogate triage without exact
	// execution: the series above are empty and the predicted_* fields
	// carry the estimate. Exact results never emit these fields, so an
	// exact payload's bytes are identical with or without triage.
	Predicted           bool     `json:"predicted,omitempty"`
	PredictedSeverity   float64  `json:"predicted_severity,omitempty"`
	PredictedTUHSeconds *float64 `json:"predicted_tuh_seconds,omitempty"`
	PredictedConfidence float64  `json:"predicted_confidence,omitempty"`
}

// newRunView projects a sim.Result onto the wire form.
func newRunView(spec ConfigSpec, hash string, res *sim.Result) RunView {
	v := RunView{
		Spec:         spec,
		ConfigHash:   hash,
		StepsRun:     res.StepsRun,
		TUHStep:      res.TUHStep,
		InitialTempC: res.InitialTemp,
		PeakTempC:    seriesMax(res.MaxTemp),
		PeakPowerW:   seriesMax(res.Power),
		MeanIPC:      seriesMean(res.IPC),
		PeakMLTDC:    seriesMax(res.MLTD),
		PeakSeverity: seriesMax(res.Severity),
		MaxTempC:     res.MaxTemp,
		MeanTempC:    res.MeanTemp,
		PowerW:       res.Power,
		IPC:          res.IPC,
		MLTDC:        res.MLTD,
		Severity:     res.Severity,
	}
	if n := len(res.MaxTemp); n > 0 {
		v.FinalTempC = res.MaxTemp[n-1]
	}
	if !math.IsInf(res.TUH, 1) {
		tuh := res.TUH
		v.TUHSeconds = &tuh
	}
	if len(res.HotspotUnit) > 0 {
		v.HotspotUnits = map[string]int{}
		for kind, n := range res.HotspotUnit {
			v.HotspotUnits[string(kind)] = n
		}
	}
	for _, h := range res.FirstHotspots {
		v.FirstHotspots = append(v.FirstHotspots, HotspotView{X: h.X, Y: h.Y, Temp: h.Temp, MLTD: h.MLTD})
	}
	if len(res.DieLabels) > 0 {
		v.DieLabels = res.DieLabels
		v.DieMaxTempC = res.DieMaxTemp
		v.DieSeverity = res.DieSeverity
		v.MemPowerW = res.MemPower
	}
	if res.Predicted && res.Prediction != nil {
		v.Predicted = true
		v.PredictedSeverity = res.Prediction.Severity
		v.PredictedConfidence = res.Prediction.Confidence
		if t := res.Prediction.TUHSeconds; t >= 0 {
			tuh := t
			v.PredictedTUHSeconds = &tuh
		}
	}
	return v
}

func seriesMax(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func seriesMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
