package hotgauge_test

import (
	"fmt"

	"hotgauge"
)

// The severity metric is a pure function of temperature and MLTD (Eq. 2).
func ExampleSeverity() {
	fmt.Printf("cool, flat die:        %.2f\n", hotgauge.Severity(45, 2))
	fmt.Printf("hotspot threshold:     %.2f\n", hotgauge.Severity(80, 25))
	fmt.Printf("damage imminent:       %.2f\n", hotgauge.Severity(120, 40))
	// Output:
	// cool, flat die:        0.00
	// hotspot threshold:     0.70
	// damage imminent:       1.00
}

// A minimal co-simulation: run gcc on the 7 nm die for 2 ms and report
// whether a hotspot formed. A coarse grid keeps the example fast.
func ExampleRun() {
	prof, err := hotgauge.LookupWorkload("gcc")
	if err != nil {
		panic(err)
	}
	res, err := hotgauge.Run(hotgauge.Config{
		Floorplan:  hotgauge.FloorplanConfig{Node: hotgauge.Node7},
		Workload:   prof,
		Warmup:     hotgauge.WarmupIdle,
		Steps:      10,
		Resolution: 0.2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulated %d steps of %.0f us\n", res.StepsRun, hotgauge.Timestep*1e6)
	fmt.Printf("hotspot formed: %v\n", res.TUHStep >= 0)
	// Output:
	// simulated 10 steps of 200 us
	// hotspot formed: true
}

// Hotspot detection on a hand-built temperature field.
func ExampleAnalyzer() {
	// A 3x3 mm die at 100 µm resolution: warm background with one hot,
	// steep bump.
	field := &hotgauge.Field{NX: 30, NY: 30, Dx: 0.1, Data: make([]float64, 900)}
	for i := range field.Data {
		field.Data[i] = 60
	}
	field.Set(15, 15, 105)

	analyzer, err := hotgauge.NewAnalyzer(field, hotgauge.DefaultHotspotDefinition())
	if err != nil {
		panic(err)
	}
	for _, h := range analyzer.Detect(field) {
		fmt.Printf("hotspot at (%.2f, %.2f) mm: %.0f C, MLTD %.0f C\n", h.X, h.Y, h.Temp, h.MLTD)
	}
	// Output:
	// hotspot at (1.55, 1.55) mm: 105 C, MLTD 45 C
}

// Instrumenting a run: a Metrics registry records per-stage wall time
// and per-run counters; Snapshot serializes them (the CLIs' -metrics-json).
func ExampleNewMetrics() {
	prof, err := hotgauge.LookupWorkload("gcc")
	if err != nil {
		panic(err)
	}
	metrics := hotgauge.NewMetrics()
	res, err := hotgauge.Run(hotgauge.Config{
		Floorplan:  hotgauge.FloorplanConfig{Node: hotgauge.Node7},
		Workload:   prof,
		Steps:      5,
		Resolution: 0.2,
		Obs:        metrics,
	})
	if err != nil {
		panic(err)
	}
	snap := metrics.Snapshot()
	fmt.Printf("steps counted: %d (ran %d)\n", snap.Counters["sim/steps"], res.StepsRun)
	fmt.Printf("thermal substeps > steps: %v\n", snap.Counters["thermal/substeps"] > snap.Counters["sim/steps"])
	fmt.Printf("stages timed: %d\n", len(snap.Stages("sim/stage/")))
	// Output:
	// steps counted: 5 (ran 5)
	// thermal substeps > steps: true
	// stages timed: 8
}

// RunAllOpts reports live campaign progress and joins all failures.
func ExampleRunAllOpts() {
	prof, err := hotgauge.LookupWorkload("gcc")
	if err != nil {
		panic(err)
	}
	base := hotgauge.Config{
		Floorplan:  hotgauge.FloorplanConfig{Node: hotgauge.Node7},
		Workload:   prof,
		Steps:      3,
		Resolution: 0.2,
	}
	cfgs := []hotgauge.Config{base, base, base}
	completions := 0
	_, err = hotgauge.RunAllOpts(cfgs, hotgauge.CampaignOptions{
		OnProgress: func(p hotgauge.CampaignProgress) { completions++ },
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("progress callbacks: %d of %d runs\n", completions, len(cfgs))
	// Output:
	// progress callbacks: 3 of 3 runs
}
