package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hotgauge/internal/sim"
	"hotgauge/internal/thermal"
)

// Output-gate tolerances against the explicit oracle: the TUH step may
// move by one, peak temperature and peak MLTD by 0.1 °C (the ADI drift
// bound of the solver accuracy table).
const (
	tuhTolSteps = 1
	tempTolC    = 0.1
)

// referenceFile is the committed oracle table; `perfbench -regen-ref`
// rewrites it.
const referenceFile = "perfbench/reference.tsv"

//go:embed reference.tsv
var referenceTSV []byte

// peaks is what the output gate compares: the first hotspot's step and
// the run's peak temperature and peak MLTD. PeakMLTD is NaN for a run
// that did not record MLTD (campaign payloads carry no MLTD series).
type peaks struct {
	TUHStep  int
	PeakTemp float64 // °C
	PeakMLTD float64 // °C
}

// refTable holds the explicit oracle's peaks by runSpec key.
type refTable map[string]peaks

func parseReference(data []byte) (refTable, error) {
	t := refTable{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("reference line %d: want 4 fields, have %d", line, len(f))
		}
		tuh, err1 := strconv.Atoi(f[1])
		temp, err2 := strconv.ParseFloat(f[2], 64)
		mltd, err3 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("reference line %d: bad number in %q", line, text)
		}
		t[f[0]] = peaks{TUHStep: tuh, PeakTemp: temp, PeakMLTD: mltd}
	}
	return t, sc.Err()
}

// check compares a run with the oracle and returns the absolute peak
// temperature error.
func (t refTable) check(r runSpec, o peaks) (float64, error) {
	ref, ok := t[r.key()]
	if !ok {
		return 0, fmt.Errorf("%s: not in the reference table", r.key())
	}
	if d := o.TUHStep - ref.TUHStep; d < -tuhTolSteps || d > tuhTolSteps {
		return 0, fmt.Errorf("%s: TUH step %d, oracle %d", r.key(), o.TUHStep, ref.TUHStep)
	}
	errT := math.Abs(o.PeakTemp - ref.PeakTemp)
	if !(errT <= tempTolC) {
		return errT, fmt.Errorf("%s: peak %.4f °C, oracle %.4f °C", r.key(), o.PeakTemp, ref.PeakTemp)
	}
	if !math.IsNaN(o.PeakMLTD) && !(math.Abs(o.PeakMLTD-ref.PeakMLTD) <= tempTolC) {
		return errT, fmt.Errorf("%s: peak MLTD %.4f °C, oracle %.4f °C", r.key(), o.PeakMLTD, ref.PeakMLTD)
	}
	return errT, nil
}

func resultPeaks(res *sim.Result) peaks {
	return peaks{TUHStep: res.TUHStep, PeakTemp: slices.Max(res.MaxTemp), PeakMLTD: slices.Max(res.MLTD)}
}

// prefixPeaks is the oracle answer for the first steps of a longer run:
// every step is independent of the run's total length, so a 100-step run
// is exactly the first 100 steps of a 400-step one.
func prefixPeaks(res *sim.Result, steps int) peaks {
	tuh := res.TUHStep
	if tuh >= steps {
		tuh = -1
	}
	return peaks{TUHStep: tuh, PeakTemp: slices.Max(res.MaxTemp[:steps]), PeakMLTD: slices.Max(res.MLTD[:steps])}
}

// regenerateReference runs the explicit oracle on every run any seed can
// generate and writes the table. It also runs each run-analysis config
// with the ADI solver and reports the worst drift against the oracle, the
// evidence that the gate's tolerances hold for every seed.
func regenerateReference(path string, workers int) error {
	specs := referenceSpecs()
	out := make([]oracleRun, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = regenerateOne(specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
		if i%20 == 0 {
			fmt.Fprintf(os.Stderr, "reference: %d/%d\n", i, len(specs))
		}
	}
	close(next)
	wg.Wait()

	var buf bytes.Buffer
	buf.WriteString("# Explicit-oracle reference for every run the benchmark can generate.\n")
	buf.WriteString("# Regenerate with: bash perfbench/run.sh -regen-ref\n")
	buf.WriteString("# key\ttuh_step\tpeak_temp_c\tpeak_mltd_c\n")
	var lines []string
	var worstT, worstM float64
	worstTUH := 0
	for _, r := range out {
		if r.err != nil {
			return r.err
		}
		for i, k := range r.keys {
			v := r.vals[i]
			lines = append(lines, fmt.Sprintf("%s\t%d\t%s\t%s\n", k, v.TUHStep,
				strconv.FormatFloat(v.PeakTemp, 'g', -1, 64), strconv.FormatFloat(v.PeakMLTD, 'g', -1, 64)))
		}
		if r.spec.Steps == analysisSteps {
			worstT = math.Max(worstT, math.Abs(r.adi.PeakTemp-r.orc.PeakTemp))
			worstM = math.Max(worstM, math.Abs(r.adi.PeakMLTD-r.orc.PeakMLTD))
			d := r.adi.TUHStep - r.orc.TUHStep
			worstTUH = max(worstTUH, d, -d)
		}
	}
	slices.Sort(lines)
	for _, l := range lines {
		buf.WriteString(l)
	}
	fmt.Printf("reference: %d rows; ADI vs oracle over %d run-analysis configs: worst peak %.4f °C, worst MLTD %.4f °C, worst TUH %d steps\n",
		len(lines), len(specs)/2, worstT, worstM, worstTUH)
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// oracleRun is one oracle run's table rows plus, for run-analysis
// configs, the ADI run it is compared with.
type oracleRun struct {
	spec     runSpec
	keys     []string
	vals     []peaks
	orc, adi peaks
	err      error
}

func regenerateOne(r runSpec) (row oracleRun) {
	row.spec = r
	cfg, err := analysisConfig(r, &thermal.Explicit{})
	if err != nil {
		row.err = err
		return row
	}
	res, err := sim.Run(cfg)
	if err != nil {
		row.err = fmt.Errorf("%s: %w", r.key(), err)
		return row
	}
	row.orc = resultPeaks(res)
	row.keys = append(row.keys, r.key())
	row.vals = append(row.vals, prefixPeaks(res, r.Steps))
	if r.Steps == analysisSteps {
		short := r
		short.Steps = campaignSteps
		row.keys = append(row.keys, short.key())
		row.vals = append(row.vals, prefixPeaks(res, campaignSteps))

		adi, _ := thermal.NewSolver("adi", 0)
		cfg.Solver = adi
		ares, err := sim.Run(cfg)
		if err != nil {
			row.err = fmt.Errorf("%s adi: %w", r.key(), err)
			return row
		}
		row.adi = resultPeaks(ares)
	}
	return row
}
