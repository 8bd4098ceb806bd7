package core

import (
	"fmt"

	"hotgauge/internal/geometry"
)

// Definition parameterizes Definition 1 of the paper: a die location is a
// hotspot iff its temperature exceeds TempThreshold AND the maximum
// localized temperature difference within Radius exceeds MLTDThreshold.
type Definition struct {
	TempThreshold float64 // T_th [°C]
	MLTDThreshold float64 // MLTD_th [°C]
	Radius        float64 // neighbourhood radius [mm]
}

// DefaultDefinition returns the case-study parameters: 80 °C, 25 °C, and
// a 1 mm radius (≈ the distance signals travel in one clock at 5 GHz,
// kept constant across nodes because global wires do not scale).
func DefaultDefinition() Definition {
	return Definition{TempThreshold: 80, MLTDThreshold: 25, Radius: 1.0}
}

// Validate checks the definition parameters.
func (d Definition) Validate() error {
	if d.Radius <= 0 {
		return fmt.Errorf("core: non-positive radius %v", d.Radius)
	}
	if d.MLTDThreshold <= 0 {
		return fmt.Errorf("core: non-positive MLTD threshold %v", d.MLTDThreshold)
	}
	return nil
}

// Hotspot is one detected hotspot location.
type Hotspot struct {
	IX, IY int     // grid cell
	X, Y   float64 // physical location [mm]
	Temp   float64 // junction temperature [°C]
	MLTD   float64 // max localized temperature difference [°C]
}

// Analyzer performs MLTD and hotspot analysis on temperature fields of a
// fixed geometry. It precomputes the circular neighbourhood stencil once;
// construct one per (grid shape, definition) pair and reuse it across
// frames.
//
// An Analyzer carries reusable scratch buffers for the sliding-window
// MLTD scan, so a single Analyzer must not be used from concurrent
// goroutines; give each worker its own (sim.Run already does).
type Analyzer struct {
	def     Definition
	nx, ny  int
	offsets []stencilOffset

	// Chord decomposition of the disk stencil for the sliding-window
	// scan: chord dy covers dx ∈ [-w, w] (dy = 0 excludes dx = 0 and has
	// half-width rad).
	chords   []chord
	widths   []int // distinct chord half-widths, indexing scratch.rowMin
	widthIdx []int // per half-width 0..rad: its index in widths, or -1
	rad      int   // int(radius/dx): half-width of the dy = 0 chord

	scratch mltdScratch
}

type stencilOffset struct{ dx, dy int }

// chord is one horizontal run of the disk stencil: row offset dy and
// the index of its half-width in Analyzer.widths.
type chord struct{ dy, wIdx int }

// NewAnalyzer builds an analyzer for fields shaped like proto.
func NewAnalyzer(proto *geometry.Field, def Definition) (*Analyzer, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if proto == nil || proto.NX <= 0 || proto.NY <= 0 {
		return nil, fmt.Errorf("core: invalid prototype field")
	}
	rCells := def.Radius / proto.Dx
	n := int(rCells)
	a := &Analyzer{def: def, nx: proto.NX, ny: proto.NY}
	for dy := -n; dy <= n; dy++ {
		for dx := -n; dx <= n; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if float64(dx*dx+dy*dy) <= rCells*rCells {
				a.offsets = append(a.offsets, stencilOffset{dx, dy})
			}
		}
	}
	if len(a.offsets) == 0 {
		return nil, fmt.Errorf("core: radius %v mm smaller than one %v mm cell", def.Radius, proto.Dx)
	}
	a.buildChords(rCells, n)
	return a, nil
}

// buildChords derives the row decomposition of the disk stencil used by
// the sliding-window scan, using the exact membership test of the
// per-cell stencil so both paths cover identical cell sets.
func (a *Analyzer) buildChords(rCells float64, n int) {
	r2 := rCells * rCells
	a.widthIdx = make([]int, n+1)
	for i := range a.widthIdx {
		a.widthIdx[i] = -1
	}
	for dy := -n; dy <= n; dy++ {
		if dy == 0 {
			a.rad = n // max dx with dx² ≤ r² is int(rCells) itself
			continue
		}
		w := -1
		for cand := n; cand >= 0; cand-- {
			if float64(cand*cand+dy*dy) <= r2 {
				w = cand
				break
			}
		}
		if w < 0 {
			continue // row entirely outside the disk
		}
		if a.widthIdx[w] < 0 {
			a.widthIdx[w] = len(a.widths)
			a.widths = append(a.widths, w)
		}
		a.chords = append(a.chords, chord{dy: dy, wIdx: a.widthIdx[w]})
	}
}

// Definition returns the analyzer's hotspot definition.
func (a *Analyzer) Definition() Definition { return a.def }

// checkShape validates that f matches the analyzer's geometry.
func (a *Analyzer) checkShape(f *geometry.Field) {
	if f.NX != a.nx || f.NY != a.ny {
		panic(fmt.Sprintf("core: field %dx%d does not match analyzer %dx%d", f.NX, f.NY, a.nx, a.ny))
	}
}
