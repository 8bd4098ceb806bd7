package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json
// order; perLayer are those of a --trace 1 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"runs_per_s", "1/s"},
	{"run_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"perf.step_us", "us"},
	{"power.step_us", "us"},
	{"thermal.step_us", "us"},
	{"thermal.substeps_per_step", "count"},
	{"thermal.peak_err_c", "C"},
	{"core.mltd_us", "us"},
	{"core.severity_us", "us"},
	{"core.detect_us", "us"},
	{"core.detect_skip_frac", "ratio"},
	{"stats.percentiles_us", "us"},
	{"sim.setup_ms", "ms"},
	{"sim.record_us", "us"},
	{"sim.analysis_to_thermal", "ratio"},
	{"sim.unattributed_frac", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.jobs_rejected", "count"},
	{"serve.heap_kb_per_job", "KB"},
	{"store.put_us", "us"},
	{"store.journal_bytes_per_job", "bytes"},
	{"store.result_bytes_per_run", "bytes"},
	{"cluster.runs_per_batch", "count"},
	{"cluster.worker_busy_frac", "ratio"},
	{"cluster.runs_stolen", "count"},
	{"cluster.runs_reassigned", "count"},
	{"cluster.dispatch_errors", "count"},
	{"cluster.duplicate_results", "count"},
	{"cluster.local_runs", "count"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one reported figure. N is the sample count behind it
// (0 for counts and ratios of counters); Base, when set, is the
// denominator a ratio was taken over.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Base  string  `json:"base,omitempty"`
}

// report collects one benchmark run's figures and failures.
type report struct {
	Meta      map[string]any         `json:"meta"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds figures printed for the reader but not gated:
	// failed_frac, the self-time breakdown, and the other mode's metrics.
	Extra map[string]metricValue `json:"extra,omitempty"`
}

func newReport(meta map[string]any) *report {
	return &report{Meta: meta, Metrics: map[string]metricValue{}, Extra: map[string]metricValue{}}
}

func (r *report) set(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

func (r *report) setBase(name string, v float64, base string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Base: base}
}

func (r *report) extra(name, unit string, v float64, n int) {
	r.Extra[name] = metricValue{Value: v, Unit: unit, N: n}
}

// fail records one failed operation; only the first few messages are kept.
func (r *report) fail(err error) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func unitOf(name string) string {
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// emit prints the human-readable report, writes the full record under
// dir, and prints the result line as the last line of stdout.
func (r *report) emit(w io.Writer, dir, stem string, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r.extra("failed_frac", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	meta, _ := json.Marshal(r.Meta)
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %-6s%s\n", d.Name, m.Value, d.Unit, annotate(m))
	}
	names := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := r.Extra[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s%s\n", n, m.Value, m.Unit, annotate(m))
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), full, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func annotate(m metricValue) string {
	var parts []string
	if m.N > 0 {
		parts = append(parts, fmt.Sprintf("n=%d", m.N))
	}
	if m.Base != "" {
		parts = append(parts, "base "+m.Base)
	}
	if len(parts) == 0 {
		return ""
	}
	return "  (" + strings.Join(parts, ", ") + ")"
}

// runMeta stamps a result record with what it was measured on.
func runMeta(workload string, seed uint64, traced bool, seconds time.Duration, defaultSolver string) map[string]any {
	sha := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			sha += " (modified)"
		}
	}
	return map[string]any{
		"workload":       workload,
		"seed":           seed,
		"trace":          traced,
		"seconds":        seconds.Seconds(),
		"git_sha":        sha,
		"go_version":     runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"default_solver": defaultSolver,
	}
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the nearest-rank p-th percentile of xs: the smallest
// value at least p% of the samples do not exceed.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
