package core

import (
	"math"

	"hotgauge/internal/geometry"
)

// MLTDAt computes the maximum localized temperature difference at cell
// (ix, iy): the cell's temperature minus the minimum temperature within
// the definition's radius. Cells whose stencil extends off the die use the
// on-die portion only (the die edge is adiabatic; there is nothing beyond
// it to time against).
func (a *Analyzer) MLTDAt(f *geometry.Field, ix, iy int) float64 {
	a.checkShape(f)
	t := f.At(ix, iy)
	minN := math.Inf(1)
	for _, o := range a.offsets {
		jx, jy := ix+o.dx, iy+o.dy
		if jx < 0 || jx >= a.nx || jy < 0 || jy >= a.ny {
			continue
		}
		if v := f.At(jx, jy); v < minN {
			minN = v
		}
	}
	if math.IsInf(minN, 1) {
		return 0
	}
	return t - minN
}

// MLTDField computes the MLTD at every cell via the sliding-window scan
// (mltd_fast.go); the result is bit-equal to evaluating MLTDAt per cell.
func (a *Analyzer) MLTDField(f *geometry.Field) *geometry.Field {
	m := a.mltdScan(f)
	out := geometry.NewField(f.NX, f.NY, f.Dx)
	copy(out.Data, m)
	return out
}

// FrameAnalysis is the result of one MLTD scan over a frame: the
// per-cell MLTD and the frame maxima derived from it in the same loop.
type FrameAnalysis struct {
	// MLTD is the per-cell MLTD in row-major order. It aliases the
	// analyzer's scratch buffer and stays valid only until the next scan
	// on that analyzer (AnalyzeFrame, MaxMLTD, MaxSeverity, MLTDField or
	// a Detect that takes the scan path); copy it to keep it longer.
	MLTD []float64
	// MaxMLTD is the die maximum of MLTD, floored at 0 (the Fig. 9
	// series); MaxSeverity is the peak of Severity(T, MLTD) over the die
	// (the sev(t) series of §V).
	MaxMLTD, MaxSeverity float64

	gen uint64 // scratch generation of MLTD, to catch a stale scan
}

// AnalyzeFrame runs the sliding-window MLTD scan over f once and returns
// the per-cell MLTD with the frame's max MLTD and max severity, computed
// in one loop. Callers that need several per-frame quantities (the
// recorded series, unit severity, detection via DetectWith) share this
// one scan. Allocation-free after the analyzer's first scan.
func (a *Analyzer) AnalyzeFrame(f *geometry.Field) FrameAnalysis {
	m := a.mltdScan(f)
	fa := FrameAnalysis{MLTD: m, gen: a.scratch.gen}
	for i, t := range f.Data {
		if m[i] > fa.MaxMLTD {
			fa.MaxMLTD = m[i]
		}
		if s := Severity(t, m[i]); s > fa.MaxSeverity {
			fa.MaxSeverity = s
		}
	}
	return fa
}

// MaxMLTD returns the maximum MLTD over the whole die — the Fig. 9
// time-series quantity. It is AnalyzeFrame's MaxMLTD without the
// severity evaluation. Allocation-free after the analyzer's first scan.
func (a *Analyzer) MaxMLTD(f *geometry.Field) float64 {
	best := 0.0
	for _, v := range a.mltdScan(f) {
		if v > best {
			best = v
		}
	}
	return best
}

// MaxSeverity returns the peak hotspot severity over the die: the sev(t)
// series of §V (AnalyzeFrame's MaxSeverity). Allocation-free after the
// analyzer's first scan.
func (a *Analyzer) MaxSeverity(f *geometry.Field) float64 {
	return a.AnalyzeFrame(f).MaxSeverity
}
