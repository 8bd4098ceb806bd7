package core

import "hotgauge/internal/geometry"

// Candidates returns the hotspot candidate locations of the Fig. 6
// algorithm: cells that are local maxima of temperature in both the x and
// y dimensions (ties included, so plateau tops are not missed). Computing
// MLTD only at these locations is what makes detection cheap; the local
// maximum is "the true location of the hotspot".
func (a *Analyzer) Candidates(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			t := f.At(ix, iy)
			if ix > 0 && f.At(ix-1, iy) > t {
				continue
			}
			if ix < a.nx-1 && f.At(ix+1, iy) > t {
				continue
			}
			if iy > 0 && f.At(ix, iy-1) > t {
				continue
			}
			if iy < a.ny-1 && f.At(ix, iy+1) > t {
				continue
			}
			x, y := f.CellCenter(ix, iy)
			out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t})
		}
	}
	return out
}

// Detect runs the full Fig. 6 detection pipeline: find candidate local
// maxima, compute MLTD only there, and keep candidates whose temperature
// and MLTD both exceed the definition thresholds. With few hot
// candidates the per-cell disk scan is cheapest; when candidates are
// dense the chord-decomposed sliding-window scan wins, so Detect picks
// by estimated cost — both paths are bit-equal, so the choice never
// changes the result.
func (a *Analyzer) Detect(f *geometry.Field) []Hotspot {
	return a.DetectWith(f, FrameAnalysis{})
}

// DetectWith is Detect reading candidate MLTD from fa, the scan of f the
// caller already ran with AnalyzeFrame, so a frame that is both recorded
// and checked for hotspots is scanned once. A zero FrameAnalysis makes
// it Detect. fa must be this analyzer's latest scan: DetectWith panics
// when another scan has overwritten fa.MLTD since (the bug of analysing
// a second frame between AnalyzeFrame and DetectWith).
func (a *Analyzer) DetectWith(f *geometry.Field, fa FrameAnalysis) []Hotspot {
	a.checkShape(f)
	if fa.MLTD != nil && fa.gen != a.scratch.gen {
		panic("core: DetectWith given a stale FrameAnalysis")
	}
	cands := a.Candidates(f)
	hot := 0
	for _, c := range cands {
		if c.Temp > a.def.TempThreshold {
			hot++
		}
	}
	if hot == 0 {
		return nil
	}
	// Reference path: ~len(offsets) disk cells per hot candidate.
	// Sliding scan: ~(chords + width passes + combine) ops per die cell.
	scan := fa.MLTD
	if scan == nil && hot*len(a.offsets) > a.nx*a.ny*(len(a.chords)+len(a.widths)+3) {
		scan = a.mltdScan(f)
	}
	var out []Hotspot
	for _, c := range cands {
		if c.Temp <= a.def.TempThreshold {
			continue
		}
		if scan != nil {
			c.MLTD = scan[c.IY*a.nx+c.IX]
		} else {
			c.MLTD = a.MLTDAt(f, c.IX, c.IY)
		}
		if c.MLTD > a.def.MLTDThreshold {
			out = append(out, c)
		}
	}
	return out
}

// DetectNaive is the robust-but-expensive reference detector the paper
// describes and rejects: it evaluates Definition 1 at every cell. It
// exists to validate Detect (every Detect hit must be a DetectNaive hit,
// and both must agree on hotspot presence) and for the detection ablation
// benchmark.
func (a *Analyzer) DetectNaive(f *geometry.Field) []Hotspot {
	a.checkShape(f)
	var out []Hotspot
	for iy := 0; iy < a.ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			t := f.At(ix, iy)
			if t <= a.def.TempThreshold {
				continue
			}
			mltd := a.MLTDAt(f, ix, iy)
			if mltd > a.def.MLTDThreshold {
				x, y := f.CellCenter(ix, iy)
				out = append(out, Hotspot{IX: ix, IY: iy, X: x, Y: y, Temp: t, MLTD: mltd})
			}
		}
	}
	return out
}

// HasHotspot reports whether the frame contains at least one hotspot
// according to the candidate-based detector — the predicate the
// time-until-hotspot (TUH) metric is built on.
func (a *Analyzer) HasHotspot(f *geometry.Field) bool {
	return len(a.Detect(f)) > 0
}
