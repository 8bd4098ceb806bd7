package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// goldenDir holds the numeric golden of the paper artifacts: one file per
// experiment, the output of `hotgauge-experiments -quick <name>` without
// its "==== name (Ns) ====" wall-time header, i.e. the report's String().
const goldenDir = "testdata/quick"

// checkGolden compares an experiment's quick-mode report against its
// golden file. The paper-shape tests call it with the report they
// already computed, so the golden costs no extra simulation. Numbers may
// drift within goldenNumberMatches' tolerance (absorbing last-bit
// differences such as fused multiply-adds on non-amd64 targets); all
// other text must match token for token, and glyph art is not compared.
// On a mismatch the test prints the full replacement file; there is no
// regeneration flag.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".txt")
	want, err := os.ReadFile(path)
	if err == nil {
		err = goldenDiff(string(want), got)
	}
	if err != nil {
		t.Errorf("%s: %v\nreplacement %s:\n%s", name, err, path, got)
	}
}

// goldenNumber matches one decimal literal inside a token, sign
// included ("+17%", "-5%", "1.65e-12", "core0").
var goldenNumber = regexp.MustCompile(`[-+]?\d+(\.\d+)?([eE][-+]?\d+)?`)

// goldenDiff reports the first differences between a golden report and
// a fresh one, or nil when they agree. Lines without a letter or digit
// (ASCII heatmaps, table rules, blank lines) are dropped, as are tokens
// made only of glyphs (sparklines, histogram strips, bar-chart bars);
// what remains is compared line by line and token by token.
func goldenDiff(want, got string) error {
	w, g := goldenLines(want), goldenLines(got)
	var diffs []string
	for i := 0; i < max(len(w), len(g)) && len(diffs) < 5; i++ {
		switch {
		case i >= len(w):
			diffs = append(diffs, fmt.Sprintf("extra line %q", strings.Join(g[i], " ")))
		case i >= len(g):
			diffs = append(diffs, fmt.Sprintf("missing line %q", strings.Join(w[i], " ")))
		case !goldenLineMatches(w[i], g[i]):
			diffs = append(diffs, fmt.Sprintf("line %q became %q", strings.Join(w[i], " "), strings.Join(g[i], " ")))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("report drifted from the golden:\n\t%s", strings.Join(diffs, "\n\t"))
}

// goldenLines splits a report into the token lists goldenDiff compares.
func goldenLines(s string) [][]string {
	var out [][]string
	for _, line := range strings.Split(s, "\n") {
		if !strings.ContainsFunc(line, func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }) {
			continue
		}
		var toks []string
		for _, tok := range strings.Fields(line) {
			if strings.Trim(tok, "_.-:=+*#%@|") != "" {
				toks = append(toks, tok)
			}
		}
		out = append(out, toks)
	}
	return out
}

func goldenLineMatches(want, got []string) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		wn, gn := goldenNumber.FindAllString(want[i], -1), goldenNumber.FindAllString(got[i], -1)
		if len(wn) != len(gn) ||
			goldenNumber.ReplaceAllString(want[i], "#") != goldenNumber.ReplaceAllString(got[i], "#") {
			return false
		}
		for j := range wn {
			if !goldenNumberMatches(wn[j], gn[j]) {
				return false
			}
		}
	}
	return true
}

// goldenNumberMatches compares two number literals: decimals within
// ±0.1, integers (counts, percentages, nodes) within ±1, and a decimal
// never matches an integer.
func goldenNumberMatches(want, got string) bool {
	decimal := func(s string) bool { return strings.ContainsAny(s, ".eE") }
	if decimal(want) != decimal(got) {
		return false
	}
	w, werr := strconv.ParseFloat(want, 64)
	g, gerr := strconv.ParseFloat(got, 64)
	if werr != nil || gerr != nil {
		return want == got
	}
	tol := 1.0
	if decimal(want) {
		tol = 0.1
	}
	return math.Abs(w-g) <= tol+1e-9
}

func TestGoldenDiffTolerance(t *testing.T) {
	const golden = "peak 105.3C at (1.05, 0.25) mm\n-----  ----\nhotspots: 5 (+17%)  _.-=*#@\n .:#@ \n"
	for _, tc := range []struct {
		name, got string
		ok        bool
	}{
		{"identical", golden, true},
		{"decimals within 0.1", "peak 105.4C at (1.15, 0.15) mm\nhotspots: 5 (+17%) __\n", true},
		{"integers within 1", "peak 105.3C at (1.05, 0.25) mm\nhotspots: 6 (+16%)\n", true},
		{"glyph art ignored", "peak 105.3C at (1.05, 0.25) mm\n-- -- ----\nhotspots: 5 (+17%) @@@@@@@@\n @@@@ .\n", true},
		{"decimal beyond 0.1", "peak 105.5C at (1.05, 0.25) mm\nhotspots: 5 (+17%)\n", false},
		{"integer beyond 1", "peak 105.3C at (1.05, 0.25) mm\nhotspots: 7 (+17%)\n", false},
		{"text changed", "peak 105.3C at (1.05, 0.25) mm\nhotspot: 5 (+17%)\n", false},
		{"unit changed", "peak 105.3F at (1.05, 0.25) mm\nhotspots: 5 (+17%)\n", false},
		{"decimal became integer", "peak 105C at (1.05, 0.25) mm\nhotspots: 5 (+17%)\n", false},
		{"line missing", "peak 105.3C at (1.05, 0.25) mm\n", false},
	} {
		if err := goldenDiff(golden, tc.got); (err == nil) != tc.ok {
			t.Errorf("%s: goldenDiff = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
