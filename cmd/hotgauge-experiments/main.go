// Command hotgauge-experiments regenerates the paper's tables and figures
// as text reports. Each subcommand is one artifact; `all` runs everything
// in order.
//
// Usage:
//
//	hotgauge-experiments [-quick] [-v] [-metrics-json m.json] [-pprof-cpu cpu.out] <experiment|all>
//
// Experiments: table1 table2 table3 table4 powerdensity tempscaling
// fig1 fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 icscale
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hotgauge/internal/experiments"
	"hotgauge/internal/obs"
	"hotgauge/internal/report"
	"hotgauge/internal/sim"
)

// runner adapts each experiment to a common shape.
type runner func(experiments.Options) (fmt.Stringer, error)

func wrap[T fmt.Stringer](f func(experiments.Options) (T, error)) runner {
	return func(o experiments.Options) (fmt.Stringer, error) { return f(o) }
}

var registry = map[string]runner{
	"table1":        wrap(experiments.Table1),
	"table2":        wrap(experiments.Table2),
	"table3":        wrap(experiments.Table3),
	"table4":        wrap(experiments.Table4),
	"powerdensity":  wrap(experiments.PowerDensity),
	"tempscaling":   wrap(experiments.TempScaling),
	"fig1":          wrap(experiments.Fig1),
	"fig2":          wrap(experiments.Fig2),
	"fig7":          wrap(experiments.Fig7),
	"fig8":          wrap(experiments.Fig8),
	"fig9":          wrap(experiments.Fig9),
	"fig10":         wrap(experiments.Fig10),
	"fig11":         wrap(experiments.Fig11),
	"fig12":         wrap(experiments.Fig12),
	"fig13":         wrap(experiments.Fig13),
	"fig14":         wrap(experiments.Fig14),
	"icscale":       wrap(experiments.ICScale),
	"dtm":           wrap(experiments.DTM),
	"cooling":       wrap(experiments.Cooling),
	"lifetimes":     wrap(experiments.Lifetimes),
	"floorplanning": wrap(experiments.Floorplanning),
	"avx":           wrap(experiments.AVX),
	"beyond7":       wrap(experiments.Beyond7),
}

// order lists experiments in presentation order for `all`.
var order = []string{
	"table1", "table2", "table3", "table4", "powerdensity",
	"fig1", "fig2", "fig7", "tempscaling", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "icscale",
	"dtm", "cooling", "lifetimes", "floorplanning", "avx", "beyond7",
}

func main() {
	quick := flag.Bool("quick", false, "reduced workload/core sets and step caps (~10 s total)")
	svgDir := flag.String("svg", "", "directory to write SVG figures into")
	metricsJSON := flag.String("metrics-json", "", "write a JSON dump of the aggregated metrics registry to this file")
	pprofCPU := flag.String("pprof-cpu", "", "write a CPU profile of the experiment run to this file")
	pprofMem := flag.String("pprof-mem", "", "write a heap profile after the run to this file")
	verbose := flag.Bool("v", false, "print the aggregated per-stage wall-time breakdown at the end")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if err := runAll(flag.Args(), *quick, *svgDir, *metricsJSON, *pprofCPU, *pprofMem, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runAll executes the named experiments with the observability plumbing
// wired; it is separate from main so profile/metrics defers run before
// exit.
func runAll(names []string, quick bool, svgDir, metricsJSON, pprofCPU, pprofMem string, verbose bool) error {
	opts := experiments.Options{Quick: quick}
	if metricsJSON != "" || verbose {
		opts.Obs = obs.NewRegistry()
	}
	if pprofCPU != "" {
		stop, err := obs.StartCPUProfile(pprofCPU)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
			}
		}()
	}
	if pprofMem != "" {
		defer func() {
			if err := obs.WriteHeapProfile(pprofMem); err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
			}
		}()
	}

	if names[0] == "all" {
		names = order
	}
	for _, name := range names {
		run, ok := registry[name]
		if !ok {
			usage()
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		result, err := run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, time.Since(start).Seconds(), result)
		if svgDir != "" {
			if err := writeFigures(svgDir, result); err != nil {
				return fmt.Errorf("%s: writing figures: %w", name, err)
			}
		}
	}

	if verbose {
		snap := opts.Obs.Snapshot()
		runT := snap.Timers[sim.MetricRunTime]
		fmt.Printf("==== stage breakdown (%d runs, %d steps, %d thermal substeps) ====\n",
			snap.Counters[sim.MetricRuns], snap.Counters[sim.MetricSteps], snap.Counters[sim.MetricThermalSubsteps])
		fmt.Print(report.StageTable(snap.Stages(sim.StagePrefix), time.Duration(runT.TotalSeconds*float64(time.Second))))
	}
	if metricsJSON != "" {
		if err := obs.WriteMetricsJSON(metricsJSON, opts.Obs); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsJSON)
	}
	return nil
}

// writeFigures saves an experiment's SVG figures, if it has any.
func writeFigures(dir string, result fmt.Stringer) error {
	fig, ok := result.(experiments.Figurer)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	figs := fig.Figures()
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names) // a stable "wrote" order keeps the output reproducible
	for _, name := range names {
		path := filepath.Join(dir, name+".svg")
		if err := os.WriteFile(path, []byte(figs[name]), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func usage() {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "usage: hotgauge-experiments [-quick] <experiment|all>\nexperiments: %v\n", names)
}
