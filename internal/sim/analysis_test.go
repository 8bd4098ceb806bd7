package sim

import (
	"math"
	"sort"
	"testing"

	"hotgauge/internal/core"
	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// planeCapture decorates a solver to keep every active plane's junction
// frame after each Step: the frames Run analyses, so a reference
// analysis can be rebuilt from them outside the run loop.
type planeCapture struct {
	thermal.Solver
	frames [][]*geometry.Field // per Step, per active plane
}

func (c *planeCapture) Step(g *thermal.Grid, s *thermal.State, p *thermal.Power, dt float64) error {
	if err := c.Solver.Step(g, s, p, dt); err != nil {
		return err
	}
	planes := make([]*geometry.Field, g.ActiveLayers())
	for i := range planes {
		planes[i] = geometry.NewField(g.NX, g.NY, g.Dx*1e3) // grid pitch is in m, fields in mm
		if err := g.ActiveFieldAtInto(s, i, planes[i]); err != nil {
			return err
		}
	}
	c.frames = append(c.frames, planes)
	return nil
}

// refMaxima is the per-cell reference analysis of one frame: MLTDAt at
// every cell, Severity on it, and the frame maxima floored at 0.
func refMaxima(a *core.Analyzer, f *geometry.Field) (maxMLTD, maxSev float64, mltd []float64) {
	mltd = make([]float64, len(f.Data))
	for iy := 0; iy < f.NY; iy++ {
		for ix := 0; ix < f.NX; ix++ {
			m := a.MLTDAt(f, ix, iy)
			mltd[iy*f.NX+ix] = m
			if m > maxMLTD {
				maxMLTD = m
			}
			if s := core.Severity(f.At(ix, iy), m); s > maxSev {
				maxSev = s
			}
		}
	}
	return maxMLTD, maxSev, mltd
}

// refPercentile interpolates between the order statistics of a sorted
// copy of xs.
func refPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// refDetect is Fig. 6 evaluated with the per-cell reference MLTD at
// every hot candidate.
func refDetect(a *core.Analyzer, f *geometry.Field) []core.Hotspot {
	def := a.Definition()
	var out []core.Hotspot
	for _, c := range a.Candidates(f) {
		if c.Temp <= def.TempThreshold {
			continue
		}
		c.MLTD = a.MLTDAt(f, c.IX, c.IY)
		if c.MLTD > def.MLTDThreshold {
			out = append(out, c)
		}
	}
	return out
}

func equalSeries(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %.17g, reference %.17g", name, i, got[i], want[i])
		}
	}
}

// TestRunAnalysisBitEqualToPerCellReference runs the shared-scan
// analysis pass end to end and rebuilds every analysed quantity from
// the captured frames with the per-cell references (MLTDAt, Severity, a
// sorted-copy percentile, candidate detection). The recorded series,
// first hotspots, hotspot-unit counts and TUH must match exactly. The
// stacked preset also analyses the other die each step, which must not
// disturb the core plane's scan that detection and unit severity read.
func TestRunAnalysisBitEqualToPerCellReference(t *testing.T) {
	const unit = "core0.fpRF"
	prof, err := workload.Lookup("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"", "memory-on-core"} {
		capture := &planeCapture{Solver: &thermal.ADI{}}
		cfg := Config{
			Floorplan:   floorplan.Config{Node: tech.Node7},
			Workload:    prof,
			Steps:       60,
			Warmup:      WarmupIdle,
			Solver:      capture,
			StackPreset: preset,
			Record: RecordOptions{
				MLTD: true, Severity: true, TempPercentiles: true, HotspotUnits: true,
				UnitSeverity: []string{unit},
			},
		}
		cfg.Definition = core.DefaultDefinition()
		cfg.Definition.TempThreshold = 60 // hotspots from the first steps on
		cfg.Definition.MLTDThreshold = 8
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("preset %q: %v", preset, err)
		}
		frames := capture.frames[len(capture.frames)-cfg.Steps:]

		corePlane := 0
		scn, err := stackScenarioFor(preset)
		if err != nil {
			t.Fatal(err)
		}
		if scn != nil {
			corePlane = scn.CoreDie
		}
		fp, err := floorplan.New(cfg.Floorplan)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(frames[0][0], cfg.Definition)
		if err != nil {
			t.Fatal(err)
		}

		var wantMLTD, wantSev, wantUnit []float64
		wantPcts := make([][]float64, 5)
		wantDie := make([][]float64, len(frames[0]))
		wantUnits := map[floorplan.Kind]int{}
		var wantFirst []core.Hotspot
		wantTUH := -1
		for step, planes := range frames {
			f := planes[corePlane]
			mx, sev, mltd := refMaxima(a, f)
			wantMLTD = append(wantMLTD, mx)
			wantSev = append(wantSev, sev)
			for i, p := range []float64{5, 25, 50, 75, 95} {
				wantPcts[i] = append(wantPcts[i], refPercentile(f.Data, p))
			}
			if len(planes) > 1 {
				for i, pf := range planes {
					s := sev
					if i != corePlane {
						_, s, _ = refMaxima(a, pf)
					}
					wantDie[i] = append(wantDie[i], s)
				}
			}
			wantUnit = append(wantUnit, unitSeverity(fp, f, mltd, unit))
			hs := refDetect(a, f)
			if len(hs) > 0 && wantTUH < 0 {
				wantTUH, wantFirst = step, hs
			}
			for _, h := range hs {
				if u, ok := fp.UnitAt(h.X, h.Y); ok {
					wantUnits[u.Kind]++
				}
			}
		}

		equalSeries(t, preset+" MLTD", res.MLTD, wantMLTD)
		equalSeries(t, preset+" Severity", res.Severity, wantSev)
		equalSeries(t, preset+" UnitSeverity", res.UnitSeverity[unit], wantUnit)
		gotPcts := make([][]float64, 5)
		for _, p := range res.TempPcts {
			for i := range p {
				gotPcts[i] = append(gotPcts[i], p[i])
			}
		}
		for i := range wantPcts {
			equalSeries(t, preset+" TempPcts", gotPcts[i], wantPcts[i])
		}
		if len(frames[0]) > 1 {
			if len(res.DieSeverity) != len(wantDie) {
				t.Fatalf("%s: %d die severity series, want %d", preset, len(res.DieSeverity), len(wantDie))
			}
			for i := range wantDie {
				equalSeries(t, preset+" DieSeverity", res.DieSeverity[i], wantDie[i])
			}
		}
		if wantTUH < 0 {
			t.Fatalf("preset %q: reference found no hotspot; the test needs one", preset)
		}
		if res.TUHStep != wantTUH || res.TUH != float64(wantTUH+1)*Timestep {
			t.Fatalf("preset %q: TUH step %d (%v s), reference %d", preset, res.TUHStep, res.TUH, wantTUH)
		}
		if len(res.FirstHotspots) != len(wantFirst) {
			t.Fatalf("preset %q: %d first hotspots, reference %d", preset, len(res.FirstHotspots), len(wantFirst))
		}
		for i := range wantFirst {
			if res.FirstHotspots[i] != wantFirst[i] {
				t.Fatalf("preset %q: first hotspot %d: %+v, reference %+v", preset, i, res.FirstHotspots[i], wantFirst[i])
			}
		}
		if len(res.HotspotUnit) != len(wantUnits) {
			t.Fatalf("preset %q: hotspot units %v, reference %v", preset, res.HotspotUnit, wantUnits)
		}
		for k, n := range wantUnits {
			if res.HotspotUnit[k] != n {
				t.Fatalf("preset %q: hotspot units %v, reference %v", preset, res.HotspotUnit, wantUnits)
			}
		}
	}
}
