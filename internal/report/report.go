package report

import (
	"fmt"
	"math"
	"strings"

	"hotgauge/internal/geometry"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Row appends a row; values are formatted with %v unless they are
// float64, which use %.3g-style compact formatting.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	case v != 0 && (math.Abs(v) < 0.01 || math.Abs(v) >= 100000):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// heatRamp is the character ramp used for heatmaps, cold to hot.
const heatRamp = " .:-=+*#%@"

// Heatmap renders a field as ASCII art, one character per cell, with the
// value range annotated. The y axis is flipped so the origin is at the
// bottom-left, matching floorplan coordinates.
func Heatmap(f *geometry.Field) string {
	lo, _, _ := f.Min()
	hi, _, _ := f.Max()
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "min=%.1f max=%.1f (%c=min %c=max, %.2f mm/char)\n",
		lo, hi, heatRamp[0], heatRamp[len(heatRamp)-1], f.Dx)
	for iy := f.NY - 1; iy >= 0; iy-- {
		for ix := 0; ix < f.NX; ix++ {
			q := (f.At(ix, iy) - lo) / span
			idx := int(q * float64(len(heatRamp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatRamp) {
				idx = len(heatRamp) - 1
			}
			b.WriteByte(heatRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Bars renders labeled horizontal bars scaled to the maximum value —
// used for histograms and per-unit hotspot counts. Whole values print
// as integers, so a count reads as a count.
func Bars(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if i < len(labels) && len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := int(v / maxV * float64(width))
		val := formatFloat(v)
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			val = fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n", maxL, label, strings.Repeat("#", n), val)
	}
	return b.String()
}

// sparkRamp is the character ramp for sparklines.
const sparkRamp = "_.-=*#@"

// Sparkline renders a series as a one-line trend.
func Sparkline(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	for _, v := range series {
		idx := int((v - lo) / span * float64(len(sparkRamp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRamp) {
			idx = len(sparkRamp) - 1
		}
		b.WriteByte(sparkRamp[idx])
	}
	return b.String()
}

// Downsample reduces a series to at most n points by averaging buckets,
// so long time series fit in a terminal-width sparkline.
func Downsample(series []float64, n int) []float64 {
	if n <= 0 || len(series) <= n {
		return series
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		a := i * len(series) / n
		b := (i + 1) * len(series) / n
		if b <= a {
			b = a + 1
		}
		s := 0.0
		for _, v := range series[a:b] {
			s += v
		}
		out[i] = s / float64(b-a)
	}
	return out
}

// FloorplanMap renders a floorplan as ASCII art: each cell shows a letter
// identifying the unit covering it, with a legend. Cores are visually
// separable because unit letters repeat per core in the same pattern.
func FloorplanMap(units []UnitBox, dieW, dieH, scaleMM float64) string {
	if scaleMM <= 0 {
		scaleMM = 0.2
	}
	nx := int(dieW / scaleMM)
	ny := int(dieH / scaleMM)
	if nx < 1 || ny < 1 {
		return ""
	}
	// Assign a stable letter per distinct label.
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	assigned := map[string]byte{}
	legend := []string{}
	letterFor := func(label string) byte {
		if c, ok := assigned[label]; ok {
			return c
		}
		c := byte('?')
		if len(assigned) < len(letters) {
			c = letters[len(assigned)]
		}
		assigned[label] = c
		legend = append(legend, fmt.Sprintf("%c=%s", c, label))
		return c
	}
	var b strings.Builder
	for iy := ny - 1; iy >= 0; iy-- {
		y := (float64(iy) + 0.5) * scaleMM
		for ix := 0; ix < nx; ix++ {
			x := (float64(ix) + 0.5) * scaleMM
			ch := byte(' ')
			for _, u := range units {
				if x >= u.X && x < u.X+u.W && y >= u.Y && y < u.Y+u.H {
					ch = letterFor(u.Label)
					break
				}
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: " + strings.Join(legend, " ") + "\n")
	return b.String()
}

// UnitBox is the minimal unit description FloorplanMap needs (decoupled
// from the floorplan package to keep report dependency-free).
type UnitBox struct {
	Label      string
	X, Y, W, H float64
}
