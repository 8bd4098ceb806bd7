package sim

import (
	"reflect"
	"strings"
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/perf"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

func mustHash(t *testing.T, cfg Config) string {
	t.Helper()
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashStableAcrossCalls(t *testing.T) {
	cfg := fastConfig(t, "gcc", 5)
	cfg.Floorplan.KindScale = map[floorplan.Kind]float64{"fpIWin": 2, "RAT_INT": 1.5, "RAT_FP": 3}
	p, _ := workload.Lookup("namd")
	cfg.Assignments = map[int]workload.Profile{1: p, 3: p, 5: p}
	cfg.Record.UnitSeverity = []string{"core0.fpIWin"}
	want := mustHash(t, cfg)
	for i := 0; i < 25; i++ {
		if got := mustHash(t, cfg); got != want {
			t.Fatalf("hash unstable across calls: %s vs %s", got, want)
		}
	}
}

func TestHashSemanticEquality(t *testing.T) {
	base := fastConfig(t, "gcc", 5)

	explicit := base
	explicit.Floorplan.Node = tech.Node7
	explicit.Definition = core.DefaultDefinition()
	explicit.Resolution = 0.2
	explicit.Ambient = thermal.DefaultAmbient
	explicit.CyclesPerStep = workload.TimestepCycles
	explicit.Solver = &thermal.ADI{}
	explicit.Stack = thermal.DefaultStack()
	explicit.SinkConductance = thermal.SinkConductance

	if got, want := mustHash(t, explicit), mustHash(t, base); got != want {
		t.Fatalf("explicit defaults hash %s != zero-value defaults hash %s", got, want)
	}

	// The explicit oracle is a different solver, not a spelling of the
	// default.
	oracle := base
	oracle.Solver = &thermal.Explicit{}
	if mustHash(t, oracle) == mustHash(t, base) {
		t.Fatal("the explicit solver hashes like the ADI default")
	}

	// UnitSeverity request order only permutes map insertion, not the
	// recorded series.
	a, b := base, base
	a.Record.UnitSeverity = []string{"core0.fpIWin", "core1.fpIWin"}
	b.Record.UnitSeverity = []string{"core1.fpIWin", "core0.fpIWin"}
	if mustHash(t, a) != mustHash(t, b) {
		t.Fatal("UnitSeverity order changed the hash")
	}

	// Maps populated in different insertion orders hash equal.
	p, _ := workload.Lookup("namd")
	m1, m2 := base, base
	m1.Floorplan.KindScale = map[floorplan.Kind]float64{}
	m2.Floorplan.KindScale = map[floorplan.Kind]float64{}
	m1.Assignments = map[int]workload.Profile{}
	m2.Assignments = map[int]workload.Profile{}
	kinds := []floorplan.Kind{"fpIWin", "RAT_INT", "RAT_FP", "iIWin", "ROB"}
	for i, k := range kinds {
		m1.Floorplan.KindScale[k] = 1 + float64(i)
		m1.Assignments[i+1] = p
	}
	for i := len(kinds) - 1; i >= 0; i-- {
		m2.Floorplan.KindScale[kinds[i]] = 1 + float64(i)
		m2.Assignments[i+1] = p
	}
	if mustHash(t, m1) != mustHash(t, m2) {
		t.Fatal("map insertion order changed the hash")
	}
}

// hashTweaks maps each hashed field of Config, named by its Go path
// ("Record.Severity", "Solver.ErrTol"), to a tweak of fastConfig's base
// that must move the content address. TestHashFieldCoverage keeps it
// complete.
func hashTweaks(namd workload.Profile) map[string]func(*Config) {
	return map[string]func(*Config){
		"Steps":                    func(c *Config) { c.Steps = 6 },
		"Core":                     func(c *Config) { c.Core = 2 },
		"Floorplan.Node":           func(c *Config) { c.Floorplan.Node = tech.Node14 },
		"Floorplan.KindScale":      func(c *Config) { c.Floorplan.KindScale = map[floorplan.Kind]float64{"fpIWin": 2} },
		"Floorplan.ICAreaFactor":   func(c *Config) { c.Floorplan.ICAreaFactor = 1.75 },
		"Floorplan.MirrorRight":    func(c *Config) { c.Floorplan.MirrorRight = true },
		"Floorplan.RowShuffleSeed": func(c *Config) { c.Floorplan.RowShuffleSeed = 7 },
		"Workload":                 func(c *Config) { c.Workload = namd },
		"SMTWorkload":              func(c *Config) { c.SMTWorkload = &namd },
		"Warmup":                   func(c *Config) { c.Warmup = WarmupIdle },
		"StopAtHotspot":            func(c *Config) { c.StopAtHotspot = true },
		"Definition.TempThreshold": func(c *Config) { c.Definition = core.Definition{TempThreshold: 85, MLTDThreshold: 25, Radius: 1} },
		"Definition.MLTDThreshold": func(c *Config) { c.Definition = core.Definition{TempThreshold: 80, MLTDThreshold: 20, Radius: 1} },
		"Definition.Radius":        func(c *Config) { c.Definition = core.Definition{TempThreshold: 80, MLTDThreshold: 25, Radius: 0.5} },
		"Resolution":               func(c *Config) { c.Resolution = 0.1 },
		"Ambient":                  func(c *Config) { c.Ambient = 45 },
		"UseCycleModel":            func(c *Config) { c.UseCycleModel = true },
		"CyclesPerStep":            func(c *Config) { c.CyclesPerStep = 1000 },
		"Solver":                   func(c *Config) { c.Solver = &thermal.Explicit{} },
		"Solver.ErrTol":            func(c *Config) { c.Solver = &thermal.ADI{ErrTol: 0.02} },
		"Solver.MaxSubsteps":       func(c *Config) { c.Solver = &thermal.ADI{MaxSubsteps: 128} },
		"Stack":                    func(c *Config) { c.Stack = thermal.LiquidCooledStack() },
		"SinkConductance":          func(c *Config) { c.SinkConductance = 2 * thermal.SinkConductance },
		"StackPreset":              func(c *Config) { c.StackPreset = StackCoreOnMemory },
		"DisableLeakageFeedback":   func(c *Config) { c.DisableLeakageFeedback = true },
		"Surrogate":                func(c *Config) { c.Surrogate = true },
		"TriageBand":               func(c *Config) { c.Surrogate = true; c.TriageBand = 0.3 },
		"AuditFrac":                func(c *Config) { c.Surrogate = true; c.AuditFrac = 0.5 },
		"Record.MLTD":              func(c *Config) { c.Record.MLTD = true },
		"Record.Severity":          func(c *Config) { c.Record.Severity = true },
		"Record.CellDeltas":        func(c *Config) { c.Record.CellDeltas = true },
		"Record.TempPercentiles":   func(c *Config) { c.Record.TempPercentiles = true },
		"Record.FieldEvery":        func(c *Config) { c.Record.FieldEvery = 10 },
		"Record.HotspotUnits":      func(c *Config) { c.Record.HotspotUnits = true },
		"Record.UnitSeverity":      func(c *Config) { c.Record.UnitSeverity = []string{"core0.fpIWin"} },
		"Assignments":              func(c *Config) { c.Assignments = map[int]workload.Profile{1: namd} },
		"Floorplan.CoreArea14":     func(c *Config) { c.Floorplan.CoreArea14 = 6 },
	}
}

// hashOperational lists the Config fields deliberately outside the
// content address: opaque behaviour Hash rejects (Source, Controller)
// and knobs that change how a run is executed or survives, never what
// it computes.
var hashOperational = []string{"Source", "Controller", "MaxWallTime", "Checkpoint", "CheckpointEvery", "Obs"}

func TestHashSensitivity(t *testing.T) {
	base := fastConfig(t, "gcc", 5)
	baseHash := mustHash(t, base)
	namd, _ := workload.Lookup("namd")

	seen := map[string]string{baseHash: "(base)"}
	for name, tweak := range hashTweaks(namd) {
		cfg := base
		tweak(&cfg)
		h := mustHash(t, cfg)
		if prev, dup := seen[h]; dup {
			t.Errorf("tweak %q collides with %q (hash %s)", name, prev, h)
		}
		seen[h] = name
	}
	// ADI: counters are instrumentation, the numeric knobs hash with
	// their documented defaults filled in.
	a1, a2 := base, base
	a1.Solver = &thermal.ADI{}
	a2.Solver = &thermal.ADI{ErrTol: 0.1, MaxSubsteps: 64}
	if mustHash(t, a1) != mustHash(t, a2) {
		t.Error("ADI zero-value and explicit defaults hash differently")
	}
}

// TestHashFieldCoverage keeps the content address honest as Config
// grows: every exported field of Config and RecordOptions must either
// have a tweak in hashTweaks (so the hash provably reacts to it) or be
// declared operational in hashOperational.
func TestHashFieldCoverage(t *testing.T) {
	tweaks := hashTweaks(workload.Profile{})
	covered := func(path string) bool {
		if _, ok := tweaks[path]; ok {
			return true
		}
		for name := range tweaks {
			if strings.HasPrefix(name, path+".") {
				return true
			}
		}
		return false
	}
	operational := map[string]bool{}
	for _, name := range hashOperational {
		operational[name] = true
	}
	check := func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			path := prefix + f.Name
			switch {
			case operational[path] && covered(path):
				t.Errorf("%s is both tweaked and declared operational", path)
			case !operational[path] && !covered(path):
				t.Errorf("Config field %s has no hash tweak and is not declared operational", path)
			}
		}
	}
	check("", reflect.TypeOf(Config{}))
	check("Record.", reflect.TypeOf(RecordOptions{}))
	for _, name := range hashOperational {
		if _, ok := reflect.TypeOf(Config{}).FieldByName(name); !ok {
			t.Errorf("operational field %s does not exist on Config", name)
		}
	}
}

func TestHashRejectsOpaqueConfigs(t *testing.T) {
	src := fastConfig(t, "gcc", 3)
	rec := perf.Record(mustSource(t, src), 2, workload.TimestepCycles)
	replay, err := perf.NewReplaySource(rec)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(*Config){
		"source":     func(c *Config) { c.Source = replay },
		"controller": func(c *Config) { c.Controller = &cancelAfter{} },
		"invalid":    func(c *Config) { c.Steps = 0 },
		"solver":     func(c *Config) { c.Solver = &stubSolver{} },
	}
	for name, tweak := range cases {
		cfg := fastConfig(t, "gcc", 3)
		tweak(&cfg)
		if _, err := cfg.Hash(); err == nil {
			t.Errorf("%s: Hash() succeeded, want error", name)
		} else if name == "source" && !strings.Contains(err.Error(), "Source") {
			t.Errorf("source error %v does not mention Source", err)
		}
	}
}

type stubSolver struct{}

func (stubSolver) Step(*thermal.Grid, *thermal.State, *thermal.Power, float64) error { return nil }
func (stubSolver) Name() string                                                      { return "stub" }

func mustSource(t *testing.T, cfg Config) perf.Source {
	t.Helper()
	s, err := cfg.newSource()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
