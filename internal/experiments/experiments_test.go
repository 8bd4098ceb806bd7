package experiments

import (
	"math"
	"strings"
	"testing"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/tech"
)

// All experiment tests run in Quick mode; the full sweeps are exercised
// by cmd/hotgauge-experiments and the benchmarks.
var quick = Options{Quick: true}

func TestTable1RendersConfig(t *testing.T) {
	r, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", r.String())
	out := r.String()
	for _, want := range []string{"224", "72", "56", "97", "Shared ring, 16 MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestTable2RendersStack(t *testing.T) {
	r, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2", r.String())
	out := r.String()
	for _, want := range []string{"silicon-active", "solder-tim", "copper-spreader", "grease", "heatsink"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestTable3MatchesPaperAccuracy(t *testing.T) {
	r, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3", r.String())
	if r.AvgErr14 > 0.16 || r.AvgErr10 > 0.28 {
		t.Fatalf("validation errors too large: 14nm %.0f%%, 10nm %.0f%%", r.AvgErr14*100, r.AvgErr10*100)
	}
	if r.AvgErr10 < r.AvgErr14 {
		t.Fatal("10nm error should exceed 14nm, as in the paper")
	}
}

func TestTable4Trend(t *testing.T) {
	r, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4", r.String())
	if !(r.Psi[0] < r.Psi[1] && r.Psi[1] < r.Psi[2]) {
		t.Fatalf("Ψ not increasing across nodes: %v", r.Psi)
	}
	if !(r.TDP[0] > r.TDP[1] && r.TDP[1] > r.TDP[2]) {
		t.Fatalf("TDP not decreasing across nodes: %v", r.TDP)
	}
}

func TestPowerDensityShape(t *testing.T) {
	r, err := PowerDensity(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "powerdensity", r.String())
	// Total power decreases per node; density increases; 7 nm ≈ 2-3× the
	// Dennard-constant expectation.
	for _, w := range r.Workloads {
		if !(r.Power[w][tech.Node14] > r.Power[w][tech.Node10] && r.Power[w][tech.Node10] > r.Power[w][tech.Node7]) {
			t.Errorf("%s: power not decreasing per node", w)
		}
		if !(r.Density[w][tech.Node7] > r.Density[w][tech.Node10] && r.Density[w][tech.Node10] > r.Density[w][tech.Node14]) {
			t.Errorf("%s: density not increasing per node", w)
		}
	}
	ratio := r.Density["bzip2"][tech.Node7] / r.Density["bzip2"][tech.Node14]
	if ratio < 2.0 || ratio > 3.2 {
		t.Fatalf("bzip2 density scaling = %.2fx, want ≈2.56x", ratio)
	}
}

func TestFig1ShowsAdvancedHotspot(t *testing.T) {
	r, err := Fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig1", r.String())
	if r.PeakTemp < 85 {
		t.Fatalf("peak temp %.1f too low for a hotspot snapshot", r.PeakTemp)
	}
	if r.NearDelta < 15 {
		t.Fatalf("near-field gradient %.1f °C too small (paper: ~30 °C nearby)", r.NearDelta)
	}
	if r.HotUnit == "" {
		t.Fatal("peak not attributed to a unit")
	}
	if len(r.Hotspots) == 0 {
		t.Fatal("no formal hotspots in the snapshot")
	}
}

func TestFig2DeltaDistributionWiderAt7nm(t *testing.T) {
	r, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2", r.String())
	if r.Spread7 <= r.Spread14 {
		t.Fatalf("7nm delta spread %.2f not wider than 14nm %.2f", r.Spread7, r.Spread14)
	}
	if r.Max7 <= r.Max14 {
		t.Fatalf("7nm peak delta %.2f not above 14nm %.2f", r.Max7, r.Max14)
	}
}

func TestFig7SeverityAnchors(t *testing.T) {
	r, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", r.String())
	// Monotone in both axes, saturating at high temperature.
	for i := range r.Sev {
		for j := 1; j < len(r.Sev[i]); j++ {
			if r.Sev[i][j]+1e-12 < r.Sev[i][j-1] {
				t.Fatalf("severity not monotone in MLTD at T=%v", r.Temps[i])
			}
		}
	}
	last := r.Sev[len(r.Sev)-1]
	if last[0] != 1 {
		t.Fatalf("severity at 130°C = %v, want 1", last[0])
	}
}

func TestFig8WarmupAcceleratesCrossing(t *testing.T) {
	r, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", r.String())
	// Idle warmup must cross 110 °C, and strictly sooner than cold.
	if math.IsInf(r.Cross110Idle, 1) {
		t.Fatal("idle-warmup run never crossed 110°C")
	}
	if r.Cross110Idle >= r.Cross110Cold {
		t.Fatalf("idle crossing %.4f not before cold %.4f", r.Cross110Idle, r.Cross110Cold)
	}
}

func TestFig9MLTDShape(t *testing.T) {
	r, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9", r.String())
	m14 := r.SideMeans(tech.Node14)
	m7 := r.SideMeans(tech.Node7)
	avg := func(m map[string]float64) float64 {
		s, n := 0.0, 0.0
		for _, v := range m {
			s, n = s+v, n+1
		}
		return s / n
	}
	ratio := avg(m7) / avg(m14)
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("7nm/14nm MLTD ratio %.2f outside the paper's ~2x band", ratio)
	}
	if m7["left"] <= m7["right"] {
		t.Fatalf("left cores (%.1f) not hotter than right cores (%.1f) at 7nm", m7["left"], m7["right"])
	}
}

func TestFig10TUHDecreasesWithNode(t *testing.T) {
	r, err := Fig10(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10", r.String())
	p14, p7 := r.Pcts[tech.Node14], r.Pcts[tech.Node7]
	if !(p7[2] < p14[2]) {
		t.Fatalf("7nm median TUH %.4f not below 14nm %.4f", p7[2], p14[2])
	}
	if p7[0] > 0.4e-3 {
		t.Fatalf("7nm p5 TUH %.4f ms, want first hotspots at ≈0.2 ms", p7[0]*1e3)
	}
}

func TestFig11SpreadAndWarmupSensitivity(t *testing.T) {
	r, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11", r.String())
	if r.SpreadOrders() < 1.5 {
		t.Fatalf("TUH spread %.1f orders, want ≥1.5 even in quick mode", r.SpreadOrders())
	}
	// The late-spike workload (gamess) must be the slow outlier cold.
	var gamessCold, hmmerCold float64
	for _, row := range r.Rows {
		if row.Warmup.String() != "cold" || row.Box.N == 0 {
			continue
		}
		switch row.Workload {
		case "gamess":
			gamessCold = row.Box.Median
		case "hmmer":
			hmmerCold = row.Box.Median
		}
	}
	if gamessCold < 10*hmmerCold {
		t.Fatalf("late-spike gamess TUH %.4f not ≫ hmmer %.4f", gamessCold, hmmerCold)
	}
}

func TestFig12HotUnitsMatchPaper(t *testing.T) {
	r, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12", r.String())
	top := r.Top()
	if len(top) < 3 {
		t.Fatalf("only %d unit kinds hotspotted", len(top))
	}
	// The paper's dominant units must be among our top kinds.
	paperHot := map[floorplan.Kind]bool{
		floorplan.KindCALU: true, floorplan.KindFpIWin: true,
		floorplan.KindRATInt: true, floorplan.KindRATFp: true,
		floorplan.KindIntRF: true, floorplan.KindFpRF: true,
		floorplan.KindCoreOther: true, floorplan.KindROB: true,
		floorplan.KindIntIWin: true, floorplan.KindAVX512: true,
	}
	matches := 0
	for i, k := range top {
		if i >= 5 {
			break
		}
		if paperHot[k] {
			matches++
		}
	}
	if matches < 4 {
		t.Fatalf("top-5 hotspot units %v barely overlap the paper's hot set", top[:min(5, len(top))])
	}
	// Caches must not dominate.
	for i, k := range top {
		if i >= 3 {
			break
		}
		if k == floorplan.KindL2 || k == floorplan.KindL1D || k == floorplan.KindL3 {
			t.Fatalf("cache %s among top hotspot units", k)
		}
	}
}

func TestFig13MitigationShape(t *testing.T) {
	r, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig13", r.String())
	rms := func(wl, label string) float64 {
		for _, c := range r.Workload[wl] {
			if c.Label == label {
				s := 0.0
				for _, v := range c.Severity {
					s += v * v
				}
				return math.Sqrt(s / float64(len(c.Severity)))
			}
		}
		t.Fatalf("no curve %q for %s", label, wl)
		return 0
	}
	for _, wl := range []string{"gcc", "milc"} {
		base := rms(wl, "7nm")
		x10 := rms(wl, "7nm fpIWin x10")
		target := rms(wl, "14nm target")
		if !(x10 < base) {
			t.Errorf("%s: fpIWin x10 (%.3f) did not reduce severity from %.3f", wl, x10, base)
		}
		if !(x10 > target) {
			t.Errorf("%s: fpIWin x10 (%.3f) reached the 14nm target (%.3f); paper says it cannot", wl, x10, target)
		}
	}
	// For milc, scaling the RFs must beat scaling the fpIWin.
	if !(rms("milc", "7nm RFs x10") < rms("milc", "7nm fpIWin x10")) {
		t.Error("milc: RFs x10 not more effective than fpIWin x10")
	}
}

func TestFig14RATScalingInsufficient(t *testing.T) {
	r, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig14", r.String())
	above, reach1 := 0, 0
	for _, row := range r.Rows {
		if row.Sev7RATx10 > row.Sev14 {
			above++
		}
		if row.Sev7RATx10 >= 0.999 {
			reach1++
		}
	}
	if above < len(r.Rows)/2 {
		t.Fatalf("only %d/%d benchmarks above target after RATs x10; paper: scaling one unit is insufficient", above, len(r.Rows))
	}
	if reach1 == 0 {
		t.Fatal("no benchmark reaches severity 1.0; paper: many do")
	}
}

func TestICScaleWithinPaperBand(t *testing.T) {
	r, err := ICScale(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "icscale", r.String())
	for _, row := range r.Rows {
		if math.IsNaN(row.AreaFactor) {
			t.Errorf("%s: no area factor found within the search limit", row.Workload)
			continue
		}
		// Paper: +75% to +150%. Allow a wider band for the reproduction.
		if row.AreaFactor < 1.4 || row.AreaFactor > 3.2 {
			t.Errorf("%s: area factor %.2f outside the plausible band", row.Workload, row.AreaFactor)
		}
	}
}

func TestTempScalingFaster(t *testing.T) {
	r, err := TempScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tempscaling", r.String())
	m14, m7 := r.TimeToMeanUp[tech.Node14], r.TimeToMeanUp[tech.Node7]
	if math.IsInf(m7, 1) || math.IsInf(m14, 1) {
		t.Fatalf("thresholds not crossed: 14nm %v, 7nm %v", m14, m7)
	}
	if m7 >= m14 {
		t.Fatalf("7nm mean warming %.4f not faster than 14nm %.4f", m7, m14)
	}
}

func TestDTMPoliciesImproveOnBaseline(t *testing.T) {
	r, err := DTM(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dtm", r.String())
	if len(r.Outcomes) < 4 {
		t.Fatalf("only %d policies evaluated", len(r.Outcomes))
	}
	base := r.Outcomes[0]
	if base.Policy != "none" {
		t.Fatal("first outcome must be the uncontrolled baseline")
	}
	improved := 0
	for _, o := range r.Outcomes[1:] {
		if o.PeakTemp < base.PeakTemp {
			improved++
		}
	}
	if improved < len(r.Outcomes)-1 {
		t.Fatalf("only %d/%d policies reduced peak temperature", improved, len(r.Outcomes)-1)
	}
	// Throttling policies must cost performance; migration alone must not.
	for _, o := range r.Outcomes {
		switch o.Policy {
		case "pi-throttle", "threshold-throttle":
			if o.MeanSpeed >= 1 {
				t.Errorf("%s was free", o.Policy)
			}
		case "migrate-coolest":
			if o.MeanSpeed != 1 || o.Migrations == 0 {
				t.Errorf("migration outcome wrong: %+v", o)
			}
		}
	}
}

func TestCoolingOrdering(t *testing.T) {
	r, err := Cooling(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cooling", r.String())
	if len(r.Rows) != 3 {
		t.Fatalf("%d cooling rows", len(r.Rows))
	}
	passive, active, liquid := r.Rows[0], r.Rows[1], r.Rows[2]
	if !(liquid.Psi < active.Psi && active.Psi < passive.Psi) {
		t.Fatalf("Psi ordering wrong: %v %v %v", passive.Psi, active.Psi, liquid.Psi)
	}
	if !(liquid.PeakTemp < active.PeakTemp && active.PeakTemp < passive.PeakTemp) {
		t.Fatalf("peak temp ordering wrong: %v %v %v", passive.PeakTemp, active.PeakTemp, liquid.PeakTemp)
	}
	// The paper's point: even the best cooling leaves severe hotspots.
	if liquid.SevRMS < 0.5 {
		t.Fatalf("liquid cooling erased hotspots (sev RMS %.2f) — gradients should persist", liquid.SevRMS)
	}
}

func TestLifetimesTracked(t *testing.T) {
	r, err := Lifetimes(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lifetimes", r.String())
	if r.Count == 0 {
		t.Fatal("no hotspots tracked")
	}
	if r.Durations.Max < 2 {
		t.Fatal("no hotspot survived more than one frame")
	}
	if len(r.ByKind) == 0 {
		t.Fatal("no unit attribution")
	}
}

func TestFloorplanningVariantsDiffer(t *testing.T) {
	r, err := Floorplanning(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "floorplanning", r.String())
	if len(r.Rows) < 4 {
		t.Fatalf("only %d placement variants", len(r.Rows))
	}
	// Placement must matter: peak MLTD varies across variants.
	lo, hi := 1e9, -1e9
	for _, row := range r.Rows {
		if row.PeakMLTD < lo {
			lo = row.PeakMLTD
		}
		if row.PeakMLTD > hi {
			hi = row.PeakMLTD
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("placement has no thermal effect: MLTD range %.2f..%.2f", lo, hi)
	}
}

func TestAVXHotspotsConcentrate(t *testing.T) {
	r, err := AVX(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "avx", r.String())
	if r.AVXShare < 0.15 {
		t.Fatalf("avxstress AVX512 hotspot share %.0f%%, want a high volume in the AVX unit", r.AVXShare*100)
	}
	// AVX512 must be the most-hit unit for the AVX workload.
	for k, n := range r.AVXCounts {
		if k != floorplan.KindAVX512 && n > r.AVXCounts[floorplan.KindAVX512] {
			t.Fatalf("unit %s (%d) out-hotspots AVX512 (%d) under avxstress", k, n, r.AVXCounts[floorplan.KindAVX512])
		}
	}
	if r.AVXShare <= r.IntShare {
		t.Fatalf("AVX workload share %.2f not above integer workload share %.2f", r.AVXShare, r.IntShare)
	}
}

func TestBeyond7TrendsWorsen(t *testing.T) {
	r, err := Beyond7(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "beyond7", r.String())
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].CoreArea >= r.Rows[i-1].CoreArea {
			t.Fatal("core area not shrinking past 7nm")
		}
		if r.Rows[i].TUH > r.Rows[i-1].TUH {
			t.Fatalf("TUH got better at %v", r.Rows[i].Node)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.PeakMLTD <= r.Rows[2].PeakMLTD*0.95 {
		t.Fatalf("5nm MLTD %.1f not beyond 7nm %.1f", last.PeakMLTD, r.Rows[2].PeakMLTD)
	}
}

func TestFiguresRender(t *testing.T) {
	// Cheap figure-producing experiments render well-formed SVG.
	r7, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	figs := r7.Figures()
	if len(figs) == 0 {
		t.Fatal("Fig7 produced no figures")
	}
	for name, doc := range figs {
		if !strings.HasPrefix(doc, "<svg") || !strings.HasSuffix(strings.TrimSpace(doc), "</svg>") {
			t.Fatalf("%s: not an SVG document", name)
		}
	}
}
