package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("input mutated")
	}
}

func TestPercentilesConsistent(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8}
	got := Percentiles(xs, 5, 25, 50)
	for i, p := range []float64{5, 25, 50} {
		if got[i] != Percentile(xs, p) {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], Percentile(xs, p))
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return v >= s[0] && v <= s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileNaNProperty pins the NaN determinism contract: a NaN
// anywhere in the input makes every percentile NaN, regardless of where
// the NaN sits (sort.Float64s strands NaNs at comparison-dependent
// positions, so anything other than full propagation would depend on the
// input order).
func TestPercentileNaNProperty(t *testing.T) {
	f := func(raw []float64, at uint, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := append([]float64(nil), raw...)
		xs[int(at%uint(len(xs)))] = math.NaN()
		pp := math.Mod(math.Abs(p), 100)
		if !math.IsNaN(Percentile(xs, pp)) {
			return false
		}
		for _, v := range Percentiles(xs, 5, 50, 95) {
			if !math.IsNaN(v) {
				return false
			}
		}
		b := BoxOf(xs)
		if b.N != len(xs) {
			return false
		}
		return math.IsNaN(b.Min) && math.IsNaN(b.Q1) && math.IsNaN(b.Median) &&
			math.IsNaN(b.Q3) && math.IsNaN(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileNaNOrderIndependent spells out the determinism half of
// the contract on a fixed slice: every rotation of a NaN-bearing input
// yields the same (NaN) answer.
func TestPercentileNaNOrderIndependent(t *testing.T) {
	base := []float64{3, math.NaN(), 1, 4, 1, 5, 9, 2, 6}
	for rot := range base {
		xs := append(append([]float64(nil), base[rot:]...), base[:rot]...)
		if !math.IsNaN(Percentile(xs, 50)) {
			t.Fatalf("rotation %d: median %v, want NaN", rot, Percentile(xs, 50))
		}
	}
	// And the no-NaN baseline still answers normally.
	if v := Percentile([]float64{3, 1, 4, 1, 5}, 50); v != 3 {
		t.Fatalf("clean median = %v, want 3", v)
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{4, 1, 3, 2, 5})
	if b.N != 5 || b.Min != 1 || b.Median != 3 || b.Max != 5 {
		t.Fatalf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 || b.IQR() != 2 {
		t.Fatalf("quartiles = %+v", b)
	}
	if e := BoxOf(nil); e.N != 0 || !math.IsNaN(e.Median) {
		t.Fatalf("empty box = %+v", e)
	}
}

func TestMeanStdRMS(t *testing.T) {
	xs := []float64{3, 4}
	if m := Mean(xs); m != 3.5 {
		t.Fatalf("mean = %v", m)
	}
	if s := Std(xs); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("std = %v", s)
	}
	// RMS of {3,4} = sqrt(12.5).
	if r := RMS(xs); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("rms = %v", r)
	}
}

func TestRMSWeightsHighSeverityMore(t *testing.T) {
	// The §V-B motivation: 1 timestep at severity X must score worse than
	// 2 timesteps at X/2 over the same horizon.
	a := []float64{1.0, 0, 0, 0}
	b := []float64{0.5, 0.5, 0, 0}
	if RMS(a) <= RMS(b) {
		t.Fatalf("RMS(%v)=%v not > RMS(%v)=%v", a, RMS(a), b, RMS(b))
	}
}

func TestDeltas(t *testing.T) {
	d := Deltas([]float64{1, 4, 2, 2})
	want := []float64{3, -2, 0}
	if len(d) != 3 {
		t.Fatalf("len = %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("delta[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if Deltas([]float64{7}) != nil {
		t.Fatal("single-element deltas not nil")
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.5, 1, 3, 3.5, 9.9, -5, 42})
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	// -5 clamps into bin 0, 42 into bin 4.
	if h.Counts[0] != 3 || h.Counts[4] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	sum := 0.0
	for _, f := range h.Normalized() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized sums to %v", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestHistogramPeak(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	h.AddAll([]float64{2.5, 2.6, 2.4, 7.1})
	c, f := h.Peak()
	if c != 2.5 || math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("peak = (%v,%v)", c, f)
	}
}

func TestHistogramSpreadWidensWithVariance(t *testing.T) {
	narrow, _ := NewHistogram(-10, 10, 100)
	wide, _ := NewHistogram(-10, 10, 100)
	for i := 0; i < 1000; i++ {
		v := float64(i%11)/10 - 0.5 // within ±0.5
		narrow.Add(v)
		wide.Add(v * 8) // within ±4
	}
	if narrow.Spread(0.98) >= wide.Spread(0.98) {
		t.Fatalf("narrow spread %v not < wide spread %v", narrow.Spread(0.98), wide.Spread(0.98))
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Fatalf("bin 0 center = %v", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Fatalf("bin 4 center = %v", c)
	}
}

// sortedPercentile is the reference the selection path must reproduce:
// a fully sorted copy read by percentileSorted.
func sortedPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// TestPercentilesSelectionMatchesSortProperty pins selection against the
// sort-based reference, exactly, on random sizes with heavy ties and on
// the orderings that defeat naive pivots (sorted, reversed, constant,
// organ pipe), for every shape of the API: Percentiles, Percentile,
// BoxOf and a reused Selector.
func TestPercentilesSelectionMatchesSortProperty(t *testing.T) {
	ps := []float64{0, 5, 25, 33.3, 50, 75, 95, 100}
	rng := rand.New(rand.NewSource(7))
	var sel Selector
	check := func(name string, xs []float64) {
		t.Helper()
		orig := append([]float64(nil), xs...)
		got := Percentiles(xs, ps...)
		into := make([]float64, len(ps))
		sel.PercentilesInto(into, xs, ps...)
		for i, p := range ps {
			want := sortedPercentile(xs, p)
			if got[i] != want || into[i] != want || Percentile(xs, p) != want {
				t.Fatalf("%s n=%d P%v: Percentiles %v, Selector %v, Percentile %v, sorted reference %v",
					name, len(xs), p, got[i], into[i], Percentile(xs, p), want)
			}
		}
		b := BoxOf(xs)
		if b.N != len(xs) || b.Min != got[0] || b.Q1 != got[2] || b.Median != got[4] || b.Q3 != got[5] || b.Max != got[7] {
			t.Fatalf("%s n=%d: BoxOf %+v inconsistent with Percentiles %v", name, len(xs), b, got)
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("%s n=%d: input mutated", name, len(xs))
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(500)
		distinct := 1 + rng.Intn(1+n/4) // heavy ties: at most n/4+1 values
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 0.37
		}
		check("ties", xs)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 20
		}
		check("random", xs)
		sort.Float64s(xs)
		check("sorted", xs)
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		check("reversed", xs)
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
		check("organ-pipe", xs)
	}
	check("constant", []float64{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	check("infinities", []float64{math.Inf(1), 3, math.Inf(-1), 3, 1, math.Inf(1)})
}

// TestPercentilesNaNAndEmpty: the NaN rule and the empty input hold on
// the selection path and on a reused Selector.
func TestPercentilesNaNAndEmpty(t *testing.T) {
	ps := []float64{0, 5, 25, 33.3, 50, 75, 95, 100}
	var sel Selector
	out := make([]float64, len(ps))
	for _, xs := range [][]float64{nil, {}, {math.NaN()}, {1, 2, math.NaN(), 4}, {math.NaN(), 1, 1, 1}} {
		sel.PercentilesInto(out, xs, ps...)
		for i, v := range Percentiles(xs, ps...) {
			if !math.IsNaN(v) || !math.IsNaN(out[i]) {
				t.Fatalf("%v: P%v = %v / %v, want NaN", xs, ps[i], v, out[i])
			}
		}
		if b := BoxOf(xs); b.N != len(xs) || !math.IsNaN(b.Min) || !math.IsNaN(b.Max) {
			t.Fatalf("%v: box %+v, want NaN summary", xs, b)
		}
	}
}

// TestSelectRanksDepthFallback drives the sort fallback that bounds the
// selection's worst case: with no partition rounds left, every wanted
// rank must still hold its sorted value.
func TestSelectRanksDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, depth := range []int{0, 1, 2} {
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = float64(rng.Intn(40))
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		ranks := []int{0, 17, 150, 151, 298, 299}
		selectRanks(xs, append([]int(nil), ranks...), depth)
		for _, r := range ranks {
			if xs[r] != want[r] {
				t.Fatalf("depth %d rank %d: %v, want %v", depth, r, xs[r], want[r])
			}
		}
	}
}

func TestSelectorNoAllocsAfterWarmup(t *testing.T) {
	xs := make([]float64, 46*31)
	for i := range xs {
		xs[i] = 60 + 40*math.Sin(float64(i)/17)
	}
	var sel Selector
	out := make([]float64, 5)
	sel.PercentilesInto(out, xs, 5, 25, 50, 75, 95)
	if allocs := testing.AllocsPerRun(10, func() {
		sel.PercentilesInto(out, xs, 5, 25, 50, 75, 95)
	}); allocs != 0 {
		t.Fatalf("PercentilesInto allocates %v objects per call after warmup", allocs)
	}
}
