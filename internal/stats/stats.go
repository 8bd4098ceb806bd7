package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It does not modify xs.
// Any NaN in xs makes the result NaN: order statistics over a
// NaN-bearing slice have no consistent meaning (NaN compares false
// both ways, so sorts and selections leave it wherever the comparisons
// abandoned it), and propagating NaN keeps the poison visible and
// deterministic.
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, p)[0]
}

// Percentiles evaluates several percentiles of xs by selection: only the
// order statistics the interpolation reads are placed, not the whole
// slice sorted. Like Percentile, a NaN anywhere in xs makes every output
// NaN, and xs is not modified.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	var sel Selector
	sel.PercentilesInto(out, xs, ps...)
	return out
}

// Selector evaluates percentiles with reusable scratch buffers, so a
// caller summarizing one frame per step allocates nothing once the
// buffers have grown to the frame size. A Selector must not be used
// from concurrent goroutines; the zero value is ready to use.
type Selector struct {
	buf   []float64
	ranks []int
}

// PercentilesInto writes Percentiles(xs, ps...) into out, which must
// have len(ps) elements. The results are bit-identical to sorting a
// copy of xs and interpolating between its order statistics.
func (sel *Selector) PercentilesInto(out, xs []float64, ps ...float64) {
	if len(out) != len(ps) {
		panic(fmt.Sprintf("stats: %d outputs for %d percentiles", len(out), len(ps)))
	}
	if len(xs) == 0 || hasNaN(xs) {
		for i := range out {
			out[i] = math.NaN()
		}
		return
	}
	n := len(xs)
	sel.buf = append(sel.buf[:0], xs...)
	sel.ranks = sel.ranks[:0]
	for _, p := range ps {
		lo, hi, _ := percentileRanks(n, p)
		sel.ranks = append(sel.ranks, lo, hi)
	}
	slices.Sort(sel.ranks)
	sel.ranks = slices.Compact(sel.ranks)
	selectRanks(sel.buf, sel.ranks, 2*bits.Len(uint(n)))
	for i, p := range ps {
		out[i] = percentileSorted(sel.buf, p)
	}
}

func hasNaN(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// percentileRanks returns the ranks of the order statistics the p-th
// percentile of n values interpolates between (hi == lo when it reads a
// single one) and the interpolation weight of hi.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	pos := p / 100 * float64(n-1)
	lo = int(math.Floor(pos))
	if lo+1 >= n {
		return lo, lo, 0
	}
	return lo, lo + 1, pos - float64(lo)
}

// percentileSorted evaluates the p-th percentile of s, which must hold
// at every rank percentileRanks names the value a full sort would put
// there (a sorted slice, or one selectRanks has partially ordered).
func percentileSorted(s []float64, p float64) float64 {
	lo, hi, frac := percentileRanks(len(s), p)
	if hi == lo {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[hi]*frac
}

// selectRanks partially orders s, which must be NaN-free, so that s[r]
// holds the value a full sort would put at index r, for every r in
// ranks (ascending, distinct, each < len(s)): the multi-rank
// nth-element. Each round three-way partitions around a median-of-three
// pivot, so a run of ties is settled in one pass, and descends only into
// the sides that still hold a wanted rank. Once depth rounds are spent
// the remaining subslice is sorted outright, bounding the worst case at
// O(n log n).
func selectRanks(s []float64, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(s) <= 16 || depth == 0 {
			slices.Sort(s)
			return
		}
		depth--
		lt, gt := partition3(s)
		left := ranks[:sort.SearchInts(ranks, lt)]
		right := ranks[sort.SearchInts(ranks, gt):]
		selectRanks(s[:lt], left, depth)
		for i := range right {
			right[i] -= gt
		}
		s, ranks = s[gt:], right
	}
}

// partition3 reorders s around the median of its first, middle and last
// values into s[:lt] < pivot, s[lt:gt] == pivot and s[gt:] > pivot.
func partition3(s []float64) (lt, gt int) {
	a, b, c := s[0], s[len(s)/2], s[len(s)-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	pivot := max(a, b)
	i := 0
	gt = len(s)
	for i < gt {
		switch v := s[i]; {
		case v < pivot:
			s[lt], s[i] = v, s[lt]
			lt++
			i++
		case v > pivot:
			gt--
			s[i], s[gt] = s[gt], v
		default:
			i++
		}
	}
	return lt, gt
}

// Box is a five-number box-and-whisker summary (Fig. 11's plot elements:
// the box spans Q1..Q3, whiskers span min..max).
type Box struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// BoxOf summarizes xs. A NaN anywhere in xs makes every summary value
// NaN (N still reports the input length), matching Percentile's
// deterministic propagation.
func BoxOf(xs []float64) Box {
	p := Percentiles(xs, 0, 25, 50, 75, 100)
	return Box{N: len(xs), Min: p[0], Q1: p[1], Median: p[2], Q3: p[3], Max: p[4]}
}

// IQR returns the interquartile range.
func (b Box) IQR() float64 { return b.Q3 - b.Q1 }

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RMS returns the root mean square of xs — the §V-B aggregation of
// sev(t), chosen because it weights high-severity intervals more than
// proportionally (1 ms at severity X is worse than 2 ms at X/2).
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v * v
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Deltas returns successive differences xs[i+1]−xs[i]: the per-timestep
// temperature deltas whose distribution Fig. 2 compares across nodes.
func Deltas(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := range out {
		out[i] = xs[i+1] - xs[i]
	}
	return out
}

// Histogram is a fixed-range linear-bin histogram. Values outside the
// range clamp into the end bins so mass is never lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram over [lo, hi) with the given bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v)/%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records a value.
func (h *Histogram) Add(v float64) {
	bin := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// AddAll records every value of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, v := range xs {
		h.Add(v)
	}
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Normalized returns bin frequencies summing to 1 (all zeros when empty).
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Peak returns the center and frequency of the most populated bin.
func (h *Histogram) Peak() (center, freq float64) {
	best, bi := -1, 0
	for i, c := range h.Counts {
		if c > best {
			best, bi = c, i
		}
	}
	if h.total == 0 {
		return h.BinCenter(bi), 0
	}
	return h.BinCenter(bi), float64(best) / float64(h.total)
}

// Spread returns the value range covering the central `frac` of mass
// (e.g. 0.98 gives a robust width measure of the distribution — the
// Fig. 2 "variance widening" comparison).
func (h *Histogram) Spread(frac float64) float64 {
	if h.total == 0 {
		return 0
	}
	tail := (1 - frac) / 2
	loCut := int(math.Ceil(tail * float64(h.total)))
	hiCut := h.total - loCut
	cum := 0
	lo, hi := h.Lo, h.Hi
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if prev < loCut && cum >= loCut {
			lo = h.BinCenter(i)
		}
		if prev < hiCut && cum >= hiCut {
			hi = h.BinCenter(i)
			break
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
