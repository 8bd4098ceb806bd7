package sim

import (
	"fmt"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// Spec is the declarative, JSON-serializable description of one run:
// the subset of Config a client can express, shared by the hotgauge CLI
// flags and the hotgauged wire form. Zero values defer to the
// simulator's defaults (14 nm node, 0.1 mm grid, 40 °C ambient, the
// case-study hotspot definition). Stock solvers are selectable by name;
// opaque Go-level knobs — custom sources, controllers, hand-built
// Solver values — are deliberately not expressible: every spec is
// canonically hashable, which is what lets a result cache address it.
type Spec struct {
	// Workload is the profile name (see workload.Names), e.g. "gcc".
	Workload string `json:"workload"`
	// Node is the process node in nm: 7, 10 or 14 (0 = 14).
	Node int `json:"node,omitempty"`
	// Core pins the workload (0-6).
	Core int `json:"core,omitempty"`
	// Warmup is "idle" (default, the paper's warmup) or "cold".
	Warmup string `json:"warmup,omitempty"`
	// Steps is the number of 200 µs timesteps (required, > 0).
	Steps int `json:"steps"`
	// StopAtHotspot ends the run at the first detected hotspot.
	StopAtHotspot bool `json:"stop_at_hotspot,omitempty"`
	// Hotspot definition overrides (0 = the 80 °C / 25 °C / 1 mm
	// case-study values).
	TempThreshold float64 `json:"temp_threshold,omitempty"`
	MLTDThreshold float64 `json:"mltd_threshold,omitempty"`
	Radius        float64 `json:"radius,omitempty"`
	// Resolution is the thermal grid pitch [mm] (0 = 0.1).
	Resolution float64 `json:"resolution,omitempty"`
	// Ambient temperature [°C] (0 = 40).
	Ambient float64 `json:"ambient,omitempty"`
	// UseCycleModel selects the cycle-level core model (slower).
	UseCycleModel bool `json:"use_cycle_model,omitempty"`
	// ScaleUnit scales the area of the named unit kinds (the §V-A
	// mitigation study), e.g. {"fpIWin": 10}.
	ScaleUnit map[string]float64 `json:"scale_unit,omitempty"`
	// ICAreaFactor uniformly scales die area (§V-B).
	ICAreaFactor float64 `json:"ic_area_factor,omitempty"`
	// RecordMLTD / RecordSeverity / RecordHotspotUnits opt into the
	// per-step MLTD and severity series and per-unit hotspot counts.
	RecordMLTD         bool `json:"record_mltd,omitempty"`
	RecordSeverity     bool `json:"record_severity,omitempty"`
	RecordHotspotUnits bool `json:"record_hotspot_units,omitempty"`
	// Solver selects the thermal solver: "" or "adi" (the adaptive
	// alternating-direction-implicit default) or "explicit" (forward
	// Euler, the reference oracle). "" and "adi" hash identically. An
	// unset solver inherits a defaults overlay (see WithDefaults).
	Solver string `json:"solver,omitempty"`
	// SolverTol tunes the ADI solver's per-step error budget [°C]
	// (0 = thermal.DefaultADIErrTol; ignored for explicit).
	SolverTol float64 `json:"solver_tol,omitempty"`
	// Surrogate opts the run into predict-first triage when the caller
	// holds a fitted surrogate model (see Config.Surrogate). A nil
	// pointer inherits the defaults overlay, while an explicit false
	// pins exact execution. TriageBand and AuditFrac tune the triage
	// policy (0 = the overlay's values, then the package defaults;
	// negative disables).
	Surrogate  *bool   `json:"surrogate,omitempty"`
	TriageBand float64 `json:"triage_band,omitempty"`
	AuditFrac  float64 `json:"audit_frac,omitempty"`
	// Stack selects a stacked-scenario preset by name (StackPresets:
	// "core-on-memory", "memory-on-core", "gpu-sm"); empty is the
	// single-die default. An unset stack inherits the defaults overlay.
	Stack string `json:"stack,omitempty"`
	// Layers overrides the thermal layer stack directly (a custom
	// cooling solution or die stack); mutually exclusive with Stack.
	Layers []thermal.Layer `json:"layers,omitempty"`
}

// WithDefaults overlays d onto the fields s leaves unset, the way a
// daemon folds its own defaults into every submitted spec before
// hashing: the solver when s names none; the stack when s pins neither
// a preset nor custom layers; the surrogate switch when s leaves it
// nil; and the triage band and audit fraction only when the surrogate
// ends up on. Every other field of d is ignored.
func (s Spec) WithDefaults(d Spec) Spec {
	if s.Solver == "" {
		s.Solver = d.Solver
	}
	if s.Stack == "" && len(s.Layers) == 0 {
		s.Stack = d.Stack
	}
	if s.Surrogate == nil {
		s.Surrogate = d.Surrogate
	}
	if s.Surrogate != nil && *s.Surrogate {
		if s.TriageBand == 0 {
			s.TriageBand = d.TriageBand
		}
		if s.AuditFrac == 0 {
			s.AuditFrac = d.AuditFrac
		}
	}
	return s
}

// Config materializes the spec into a Config. Only the names are
// resolved here (workload, node, warmup, solver); every other default,
// the hotspot definition's included, is left to Config's normalization,
// the one place Run, Hash and Normalized fill them.
func (s Spec) Config() (Config, error) {
	prof, err := workload.Lookup(s.Workload)
	if err != nil {
		return Config{}, err
	}
	switch s.Node {
	case 0, 7, 10, 14:
	default:
		return Config{}, fmt.Errorf("sim: unknown node %d (want 7, 10 or 14)", s.Node)
	}
	var warmup WarmupMode
	switch s.Warmup {
	case "", "idle":
		warmup = WarmupIdle
	case "cold":
		warmup = WarmupCold
	default:
		return Config{}, fmt.Errorf("sim: unknown warmup %q (cold or idle)", s.Warmup)
	}
	solver, err := thermal.NewSolver(s.Solver, s.SolverTol)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Floorplan: floorplan.Config{
			Node:         tech.Node(s.Node),
			ICAreaFactor: s.ICAreaFactor,
		},
		Workload:      prof,
		Core:          s.Core,
		Warmup:        warmup,
		Steps:         s.Steps,
		StopAtHotspot: s.StopAtHotspot,
		Definition: core.Definition{
			TempThreshold: s.TempThreshold,
			MLTDThreshold: s.MLTDThreshold,
			Radius:        s.Radius,
		},
		Resolution:    s.Resolution,
		Ambient:       s.Ambient,
		UseCycleModel: s.UseCycleModel,
		Solver:        solver,
		StackPreset:   s.Stack,
		Surrogate:     s.Surrogate != nil && *s.Surrogate,
		TriageBand:    s.TriageBand,
		AuditFrac:     s.AuditFrac,
		Record: RecordOptions{
			MLTD:         s.RecordMLTD,
			Severity:     s.RecordSeverity,
			HotspotUnits: s.RecordHotspotUnits,
		},
	}
	if len(s.Layers) > 0 {
		cfg.Stack = append([]thermal.Layer(nil), s.Layers...)
	}
	if len(s.ScaleUnit) > 0 {
		cfg.Floorplan.KindScale = map[floorplan.Kind]float64{}
		for k, v := range s.ScaleUnit {
			cfg.Floorplan.KindScale[floorplan.Kind(k)] = v
		}
	}
	return cfg, nil
}
