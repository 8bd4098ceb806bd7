package sim

import (
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/thermal"
)

// TestSpecWithDefaults pins the overlay rules: each default fills only
// an unset field, the stack only when neither a preset nor custom
// layers is pinned, and the triage knobs only when the surrogate ends
// up on.
func TestSpecWithDefaults(t *testing.T) {
	on, off := true, false
	d := Spec{Solver: "adi", Stack: StackGPUSM, Surrogate: &on, TriageBand: 0.2, AuditFrac: 0.3, Steps: 99}

	got := Spec{Workload: "gcc", Steps: 5}.WithDefaults(d)
	if got.Solver != "adi" || got.Stack != StackGPUSM || got.Surrogate == nil || !*got.Surrogate ||
		got.TriageBand != 0.2 || got.AuditFrac != 0.3 || got.Steps != 5 {
		t.Errorf("unset spec: got %+v", got)
	}

	pinned := Spec{Solver: "explicit", Stack: StackCoreOnMemory, Surrogate: &on, TriageBand: 0.05}
	got = pinned.WithDefaults(d)
	if got.Solver != "explicit" || got.Stack != StackCoreOnMemory || got.TriageBand != 0.05 || got.AuditFrac != 0.3 {
		t.Errorf("pinned spec: got %+v", got)
	}

	got = Spec{Layers: thermal.DefaultStack()}.WithDefaults(d)
	if got.Stack != "" {
		t.Errorf("custom layers took the default stack %q", got.Stack)
	}

	got = Spec{Surrogate: &off}.WithDefaults(d)
	if *got.Surrogate || got.TriageBand != 0 || got.AuditFrac != 0 {
		t.Errorf("surrogate:false took triage defaults: %+v", got)
	}

	// A surrogate opt-in under an overlay without a surrogate default
	// still takes the overlay's knobs: it ends up on.
	got = Spec{Surrogate: &on}.WithDefaults(Spec{TriageBand: 0.2})
	if got.TriageBand != 0.2 {
		t.Errorf("opted-in spec: triage band %v, want 0.2", got.TriageBand)
	}
	if got := (Spec{}).WithDefaults(Spec{TriageBand: 0.2}); got.Surrogate != nil || got.TriageBand != 0 {
		t.Errorf("overlay without a surrogate default switched triage on: %+v", got)
	}
}

// TestNormalizedFillsPartialDefinition: each zero hotspot-definition
// field takes its case-study value, so a spec overriding one threshold
// and a Go caller setting the same partial Definition hash alike.
func TestNormalizedFillsPartialDefinition(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Definition = core.Definition{MLTDThreshold: 20}
	n, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultDefinition()
	if want := (core.Definition{TempThreshold: def.TempThreshold, MLTDThreshold: 20, Radius: def.Radius}); n.Definition != want {
		t.Fatalf("normalized definition %+v, want %+v", n.Definition, want)
	}
	if cfg.Definition != (core.Definition{MLTDThreshold: 20}) {
		t.Error("Normalized mutated its receiver")
	}
	spec, err := Spec{Workload: "gcc", Steps: 5, MLTDThreshold: 20}.Config()
	if err != nil {
		t.Fatal(err)
	}
	full := spec
	full.Definition = n.Definition
	if mustHash(t, spec) != mustHash(t, full) {
		t.Error("a partial definition and its filled twin hash differently")
	}
}
