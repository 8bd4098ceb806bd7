package surrogate

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/perf"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

func testConfig(t *testing.T, name string, steps int, ambient float64) sim.Config {
	t.Helper()
	p, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Floorplan:  floorplan.Config{Node: tech.Node7},
		Workload:   p,
		Steps:      steps,
		Resolution: 0.25,
		Ambient:    ambient,
	}
}

// trainingSet fits a small corpus of synthetic points with analytically
// distinct targets: hot workloads at high ambient are hotspots.
func trainingSet(t *testing.T) []Point {
	t.Helper()
	var pts []Point
	for _, name := range []string{"gcc", "bzip2", "namd", "povray"} {
		for i, amb := range []float64{40, 55, 70} {
			cfg := testConfig(t, name, 10, amb)
			x, err := Features(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sev := 0.1*float64(i) + 0.05*float64(len(name)%3)
			tuh := -1.0
			if sev >= 0.25 {
				tuh = 1e-3 * float64(i+1)
			}
			pts = append(pts, Point{
				Key: fmt.Sprintf("%s-%02.0f", name, amb),
				X:   x,
				Y:   Targets{PeakSeverity: sev, TUHSeconds: tuh, Hotspot: tuh >= 0},
			})
		}
	}
	return pts
}

func TestFeaturesMatchSchema(t *testing.T) {
	cfg := testConfig(t, "gcc", 12, 45)
	x, err := Features(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := FeatureNames()
	if len(x) != len(names) {
		t.Fatalf("Features returned %d values, schema has %d", len(x), len(names))
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %q = %v", names[i], v)
		}
	}
}

func TestFeaturesDeterministic(t *testing.T) {
	cfg := testConfig(t, "namd", 16, 52)
	a, err := Features(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := Features(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: feature %q differs: %v vs %v", trial, FeatureNames()[i], a[i], b[i])
			}
		}
	}
}

func TestFeaturesNormalizationInvariant(t *testing.T) {
	sparse := testConfig(t, "gcc", 10, 0) // zero Ambient → default
	full := sparse
	full.Ambient = 40 // thermal.DefaultAmbient
	a, err := Features(sparse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Features(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %q differs between sparse and normalized config: %v vs %v",
				FeatureNames()[i], a[i], b[i])
		}
	}
}

// TestFeaturesStackLayers: a stacked preset's stack_layers feature is
// its preset stack's layer count, so triage can tell a stacked run from
// its single-die twin.
func TestFeaturesStackLayers(t *testing.T) {
	presetStacks := map[string][]thermal.Layer{
		sim.StackCoreOnMemory: thermal.CoreOnMemoryStack(),
		sim.StackMemoryOnCore: thermal.MemoryOnCoreStack(),
		sim.StackGPUSM:        thermal.GPUSMStack(),
	}
	at := -1
	for i, name := range FeatureNames() {
		if name == "stack_layers" {
			at = i
		}
	}
	single, err := Features(testConfig(t, "gcc", 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(thermal.DefaultStack())); single[at] != want {
		t.Fatalf("single-die stack_layers = %v, want %v", single[at], want)
	}
	for _, preset := range sim.StackPresets() {
		stack, ok := presetStacks[preset]
		if !ok {
			t.Fatalf("preset %q has no expected stack in this test", preset)
		}
		cfg, err := sim.Spec{Workload: "gcc", Node: 7, Steps: 10, Stack: preset}.Config()
		if err != nil {
			t.Fatal(err)
		}
		x, err := Features(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(len(stack)); x[at] != want {
			t.Errorf("%s: stack_layers = %v, want its preset's %v layers", preset, x[at], want)
		}
		if x[at] == single[at] {
			t.Errorf("%s: stack_layers = %v, indistinguishable from the single die", preset, x[at])
		}
	}
}

func TestFeaturesRejectsOpaqueConfig(t *testing.T) {
	cfg := testConfig(t, "gcc", 10, 45)
	cfg.Source = staticSource{}
	if _, err := Features(cfg); err == nil {
		t.Error("config with custom Source accepted")
	}
	cfg = testConfig(t, "gcc", 10, 45)
	cfg.Steps = 0
	if _, err := Features(cfg); err == nil {
		t.Error("zero-step config accepted")
	}
}

type staticSource struct{}

func (staticSource) Step(step int, cycles uint64) perf.Activity { return perf.Activity{} }

// TestFitDeterministic is the core determinism guarantee: the same seed
// and key set produce a bit-identical serialized model and bit-identical
// predictions, regardless of training-point order.
func TestFitDeterministic(t *testing.T) {
	pts := trainingSet(t)
	m1, err := Fit(pts, FitOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order must not matter: Fit sorts by key.
	rev := make([]Point, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	m2, err := Fit(rev, FitOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Encode(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Encode(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("same seed + key set fitted in different orders produced different serialized models")
	}

	query := testConfig(t, "bzip2", 10, 62)
	p1, err := m1.Predict(query)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Predict(query)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("predictions differ: %+v vs %+v", p1, p2)
	}

	// A different seed must change the ensemble (sanity check that the
	// seed is actually threaded through).
	m3, err := Fit(pts, FitOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Encode(m3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(e1, e3) {
		t.Fatal("different seeds produced identical models")
	}
}

func TestInSamplePredictionRecoversTarget(t *testing.T) {
	pts := trainingSet(t)
	m, err := Fit(pts, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// An in-sample query sits at distance ~0 from its own training row,
	// so the k-NN (and thus the blend) must return (nearly) its target.
	for _, want := range []int{0, 5, len(pts) - 1} {
		sev, _, conf := m.predictVec(unstandardize(m, want))
		if math.Abs(sev-m.YSev[want]) > 1e-6 {
			t.Errorf("in-sample point %d: predicted %.6f, trained on %.6f", want, sev, m.YSev[want])
		}
		if conf < 0.5 {
			t.Errorf("in-sample point %d: confidence %.3f below the exact-run default threshold", want, conf)
		}
	}
}

// unstandardize maps a stored (standardized) training row back to raw
// feature space, the form predictVec expects.
func unstandardize(m *Model, i int) []float64 {
	x := make([]float64, len(m.X[i]))
	for j, z := range m.X[i] {
		x[j] = z*m.Std[j] + m.Mean[j]
	}
	return x
}

func TestFitSaveLoadPredictRoundTrip(t *testing.T) {
	pts := trainingSet(t)
	m, err := Fit(pts, FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "models", "surrogate.json")
	if err := Save(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	f1, err := Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("fingerprint changed across save/load: %s vs %s", f1, f2)
	}

	// Concurrent prediction through both models must agree bit-for-bit
	// (also exercises Predict under -race).
	queries := []sim.Config{
		testConfig(t, "gcc", 10, 48),
		testConfig(t, "namd", 10, 66),
		testConfig(t, "povray", 10, 41),
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(queries)*2)
	for _, q := range queries {
		wg.Add(1)
		go func(q sim.Config) {
			defer wg.Done()
			a, err := m.Predict(q)
			if err != nil {
				errCh <- err
				return
			}
			b, err := loaded.Predict(q)
			if err != nil {
				errCh <- err
				return
			}
			if a != b {
				errCh <- fmt.Errorf("prediction drifted across save/load: %+v vs %+v", a, b)
			}
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruptModels(t *testing.T) {
	m, err := Fit(trainingSet(t), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutate := []func(*Model){
		func(m *Model) { m.Version = 99 },
		func(m *Model) { m.Names = m.Names[:len(m.Names)-1] },
		func(m *Model) { m.Names[0] = "renamed_feature" },
		func(m *Model) { m.Mean = m.Mean[:3] },
		func(m *Model) { m.Std[2] = 0 },
		func(m *Model) { m.SevWeights = nil },
		func(m *Model) { m.SevWeights[0] = m.SevWeights[0][:5] },
		func(m *Model) { m.X = nil },
		func(m *Model) { m.YSev = m.YSev[:1] },
		func(m *Model) { m.DistScale = 0 },
	}
	for i, f := range mutate {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := Decode(data)
		if err != nil {
			t.Fatalf("baseline decode %d failed: %v", i, err)
		}
		f(bad)
		data2, err := Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data2); err == nil {
			t.Errorf("mutation %d accepted by Decode", i)
		}
	}
}

func TestPointFromResultRejectsPredicted(t *testing.T) {
	cfg := testConfig(t, "gcc", 10, 45)
	res := &sim.Result{Config: cfg, Predicted: true}
	if _, err := PointFromResult("k", cfg, res); err == nil {
		t.Error("predicted-only result accepted as a training point")
	}
	res = &sim.Result{Config: cfg} // no severity series
	if _, err := PointFromResult("k", cfg, res); err == nil {
		t.Error("result without severity series accepted")
	}
	res = &sim.Result{Config: cfg, Severity: []float64{0.1, 0.4, 0.3}, TUH: math.Inf(1)}
	p, err := PointFromResult("k", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Y.PeakSeverity != 0.4 || p.Y.Hotspot || p.Y.TUHSeconds >= 0 {
		t.Fatalf("targets = %+v", p.Y)
	}
}

func TestFarQueryLowersConfidence(t *testing.T) {
	m, err := Fit(trainingSet(t), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	near := unstandardize(m, 0)
	_, _, nearConf := m.predictVec(near)
	far := make([]float64, len(near))
	for i, v := range near {
		far[i] = v + 50*m.Std[i]
	}
	_, _, farConf := m.predictVec(far)
	if farConf >= nearConf {
		t.Fatalf("confidence did not decay with distance: near %.3f, far %.3f", nearConf, farConf)
	}
}
