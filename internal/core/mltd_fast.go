package core

import (
	"math"

	"hotgauge/internal/geometry"
)

// Sliding-window MLTD scan. The per-cell reference (MLTDAt) visits every
// cell of the disk stencil for every die cell: O(cells · R²) in the
// radius measured in cells. This file decomposes the disk into
// horizontal chords and computes, per distinct chord half-width w, the
// windowed row minimum min f(x±w, y) for all cells. The row minima come
// from one incremental-width pass per row:
//
//	excl_0[x] = +Inf
//	excl_w[x] = min(excl_{w-1}[x], f(x−w, y), f(x+w, y))   (on-die terms only)
//	rowMin_w[x] = min(f(x, y), excl_w[x])
//
// excl_rad is the dy = 0 chord, which excludes the cell itself. Every
// step is a pair of straight-line minimum sweeps over the row with no
// data-dependent control flow, so the pass costs O(R) per cell with a
// small constant. The neighbourhood minimum of a cell is then the
// minimum of one precomputed row value per chord — O(cells · R)
// overall. Both paths minimize over identical cell sets, so their
// results are bit-equal; mltd_equiv_test.go enforces that.

// mltdScratch holds the reusable buffers of the scan; all grow on first
// use and make repeat scans allocation-free.
type mltdScratch struct {
	rowMin [][]float64 // per distinct width: cells-sized windowed row minima
	mltd   []float64   // cells-sized MLTD output
	gen    uint64      // scans run so far; stamps FrameAnalysis
}

func (s *mltdScratch) grow(nWidths, cells int) {
	for len(s.rowMin) < nWidths {
		s.rowMin = append(s.rowMin, nil)
	}
	for i := range s.rowMin {
		if cap(s.rowMin[i]) < cells {
			s.rowMin[i] = make([]float64, cells)
		}
		s.rowMin[i] = s.rowMin[i][:cells]
	}
	if cap(s.mltd) < cells {
		s.mltd = make([]float64, cells)
	}
	s.mltd = s.mltd[:cells]
}

// minInto lowers dst[i] to src[i] wherever src[i] is smaller.
func minInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = min(dst[i], v)
	}
}

// rowMinsInto runs the incremental-width pass over one row. It leaves
// excl_rad (the centre-excluded dy = 0 chord, +Inf where the row offers
// no neighbour) in excl and stores min(row[x], excl_w[x]) at offset off
// of the row-minimum buffer of every chord width w.
func (a *Analyzer) rowMinsInto(row, excl []float64, rowMin [][]float64, off int) {
	nx := len(row)
	inf := math.Inf(1)
	for x := range excl {
		excl[x] = inf
	}
	for w := 0; w <= a.rad; w++ {
		if w > 0 && w < nx {
			minInto(excl[w:], row[:nx-w]) // left neighbour x−w
			minInto(excl[:nx-w], row[w:]) // right neighbour x+w
		}
		if wi := a.widthIdx[w]; wi >= 0 {
			out := rowMin[wi][off : off+nx]
			copy(out, row)
			minInto(out, excl)
		}
	}
}

// mltdScan computes the MLTD of every cell into the analyzer's scratch
// buffer and returns it (valid until the next scan on this analyzer).
func (a *Analyzer) mltdScan(f *geometry.Field) []float64 {
	a.checkShape(f)
	nx, ny := a.nx, a.ny
	s := &a.scratch
	s.grow(len(a.widths), nx*ny)
	s.gen++

	for y := 0; y < ny; y++ {
		off := y * nx
		a.rowMinsInto(f.Data[off:off+nx], s.mltd[off:off+nx], s.rowMin, off)
	}
	for y := 0; y < ny; y++ {
		row := f.Data[y*nx : (y+1)*nx]
		m := s.mltd[y*nx : (y+1)*nx]
		for _, ch := range a.chords {
			yy := y + ch.dy
			if yy < 0 || yy >= ny {
				continue
			}
			minInto(m, s.rowMin[ch.wIdx][yy*nx:(yy+1)*nx])
		}
		for x := range m {
			if math.IsInf(m[x], 1) {
				m[x] = 0
				continue
			}
			m[x] = row[x] - m[x]
		}
	}
	return s.mltd
}
