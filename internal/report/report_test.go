package report

import (
	"math"
	"strings"
	"testing"

	"hotgauge/internal/geometry"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("short", 1.5)
	tb.Row("a-much-longer-name", 250000.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator line: %q", lines[1])
	}
	if !strings.Contains(out, "1.500") || !strings.Contains(out, "2.5e+05") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestTableHandlesInfNaN(t *testing.T) {
	tb := NewTable("v")
	tb.Row(math.Inf(1))
	out := tb.String()
	if !strings.Contains(out, "inf") {
		t.Fatalf("inf not rendered: %s", out)
	}
}

func TestHeatmapShape(t *testing.T) {
	f := geometry.NewField(10, 4, 0.1)
	f.Set(9, 3, 100)
	out := Heatmap(f)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // legend + 4 rows
		t.Fatalf("got %d lines", len(lines))
	}
	// Hottest cell is at the top-right (y flipped): first data row, last char.
	if lines[1][9] != '@' {
		t.Fatalf("hot cell not rendered hot: %q", lines[1])
	}
	for _, l := range lines[1:] {
		if len(l) != 10 {
			t.Fatalf("row width %d, want 10", len(l))
		}
	}
}

func TestHeatmapUniformField(t *testing.T) {
	f := geometry.NewField(5, 5, 0.1)
	f.Fill(50)
	out := Heatmap(f) // must not divide by zero
	if !strings.Contains(out, "min=50.0 max=50.0") {
		t.Fatalf("legend wrong: %s", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"a", "bb"}, []float64{2, 4}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Fatalf("half bar wrong: %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], "# 4") {
		t.Fatalf("whole value not printed as an integer: %q", lines[1])
	}
}

func TestBarsEmptyAndZero(t *testing.T) {
	if out := Bars(nil, []float64{0, 0}, 10); strings.Count(out, "#") != 0 {
		t.Fatalf("zero values rendered bars: %q", out)
	}
}

func TestSparkline(t *testing.T) {
	out := Sparkline([]float64{0, 1, 2, 3})
	if len(out) != 4 {
		t.Fatalf("length %d", len(out))
	}
	if out[0] != '_' || out[3] != '@' {
		t.Fatalf("ramp endpoints wrong: %q", out)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty series should render empty")
	}
	if s := Sparkline([]float64{5, 5}); s != "__" {
		t.Fatalf("flat series: %q", s)
	}
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 1, 3, 3, 5, 5}
	out := Downsample(in, 3)
	if len(out) != 3 || out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Fatalf("downsample = %v", out)
	}
	if got := Downsample(in, 10); len(got) != 6 {
		t.Fatal("short series must pass through")
	}
}

func TestFloorplanMap(t *testing.T) {
	units := []UnitBox{
		{Label: "A", X: 0, Y: 0, W: 1, H: 1},
		{Label: "B", X: 1, Y: 0, W: 1, H: 1},
	}
	out := FloorplanMap(units, 2, 1, 0.5)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 rows + legend
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "AABB" {
		t.Fatalf("row = %q", lines[0])
	}
	if !strings.Contains(lines[2], "A=A") || !strings.Contains(lines[2], "B=B") {
		t.Fatalf("legend = %q", lines[2])
	}
	if FloorplanMap(units, 0.1, 0.1, 0.5) != "" {
		t.Fatal("degenerate grid should render empty")
	}
}
