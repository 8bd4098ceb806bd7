// Command perfbench is the HotGauge benchmark: it drives the public entry
// points (sim.Run, and serve.Server behind a loopback listener, alone or
// with cluster workers) from outside, checks every output against an
// explicit-oracle reference table, and prints end-to-end metrics, or
// per-layer metrics from a traced run. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/thermal"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// outDir holds result records, traces and scratch data dirs, relative to
// the directory the benchmark runs from.
const outDir = ".bench_build/perfbench"

// workloads are the benchmark's workloads in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"run-analysis", (*bench).runAnalysis},
	{"campaign-cold", func(b *bench) error { return b.runCold(false) }},
	{"campaign-hot", (*bench).runHot},
	{"cluster-cold", func(b *bench) error { return b.runCold(true) }},
}

// bench is one benchmark run: a workload, a seed, a time budget.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	ref      refTable
	tr       *tracer
	rep      *report
	scratch  string
	dirs     int // data dirs created so far

	peakErr float64 // worst |peak T − oracle| over every checked run
}

func main() {
	wl := flag.String("workload", "run-analysis", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", DefaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for confirming claims)", DefaultSeed, HeldOutSeed))
	seconds := flag.Float64("seconds", 10, "measured time per run [s]")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	regen := flag.Bool("regen-ref", false, "regenerate "+referenceFile+" with the explicit oracle and exit")
	flag.Parse()

	if *regen {
		if err := regenerateReference(referenceFile, 2); err != nil {
			fatal(err)
		}
		return
	}
	i := slices.Index(workloadNames(), *wl)
	if i < 0 {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *wl, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	ref, err := parseReference(referenceTSV)
	if err != nil {
		fatal(err)
	}
	solver, err := thermal.NewSolver(daemonDefaultSolver, 0)
	if err != nil {
		fatal(err)
	}
	b := &bench{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		ref:      ref,
		rep:      newReport(runMeta(*wl, *seed, *trace == 1, time.Duration(*seconds*float64(time.Second)), solver.Name())),
		scratch:  filepath.Join(outDir, fmt.Sprintf("scratch-%d", os.Getpid())),
	}
	if b.traced {
		b.tr = newTracer()
	}
	err = workloads[i].run(b)
	os.RemoveAll(b.scratch)
	if err != nil {
		fatal(err)
	}
	b.rep.set("thermal.peak_err_c", b.peakErr, b.rep.Attempted)
	stem := fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, *trace)
	if b.traced {
		if err := b.tr.write(filepath.Join(outDir, "trace-"+stem+".json")); err != nil {
			fatal(err)
		}
	}
	if err := b.rep.emit(os.Stdout, outDir, stem, b.traced); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// setup runs fn setupReps times, tearing down all but the last, and
// records the median as setup_s.
func (b *bench) setup(fn func() error, teardown func()) error {
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	b.setEndToEnd("setup_s", median(ms(times))/1e3, len(times))
	return nil
}

// setEndToEnd reports an end-to-end metric; a traced run prints it for
// the reader but does not report it, as its operations alternate with
// traced ones.
func (b *bench) setEndToEnd(name string, v float64, n int) {
	if b.traced {
		b.rep.extra(name, unitOf(name), v, n)
	} else {
		b.rep.set(name, v, n)
	}
}

// setTimer reports a stage timer's mean, scaled from seconds.
func (b *bench) setTimer(name string, snap obs.Snapshot, timer string, scale float64) {
	t := snap.Timers[timer]
	b.rep.set(name, t.MeanSeconds*scale, int(t.Count))
}

func (b *bench) setDetectSkip(snap obs.Snapshot) {
	steps := snap.Counters[sim.MetricSteps]
	b.rep.setBase("core.detect_skip_frac", ratio(float64(snap.Counters[sim.MetricDetectSkipped]), float64(steps)),
		fmt.Sprintf("%d steps", steps))
}

// setOverhead reports how much slower the traced operations ran than the
// untraced ones they alternated with.
func (b *bench) setOverhead(plain, traced float64, of string) {
	b.rep.setBase("trace.overhead_frac", ratio(plain-traced, plain),
		fmt.Sprintf("untraced %s %.4g", of, plain))
}

// zeroLayers reports 0, from no samples, for the per-layer metrics under
// the given prefixes: layers the workload never calls.
func (b *bench) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				b.rep.set(d.Name, 0, 0)
			}
		}
	}
}
