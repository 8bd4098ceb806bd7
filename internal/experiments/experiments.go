package experiments

import (
	"fmt"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/obs"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/workload"
)

// Options tunes experiment cost. Quick mode cuts workload sets, core
// sweeps and step caps so the full suite runs in seconds; full
// mode reproduces the paper's sweeps.
type Options struct {
	Quick bool

	// Obs, when non-nil, aggregates every run's metrics (stage timers,
	// substep counters, campaign progress) across all experiments into
	// one registry — the -metrics-json/-v plumbing of
	// cmd/hotgauge-experiments.
	Obs *obs.Registry
}

// suite returns the workload set for an experiment: the full 29-profile
// SPEC2006 suite, or a representative 10-profile subset in quick mode
// (covering int/fp, compute/memory-bound, predictable/branchy, and one
// late-spike profile).
func (o Options) suite() []workload.Profile {
	if !o.Quick {
		return workload.SPEC2006()
	}
	names := []string{
		"bzip2", "gcc", "gobmk", "hmmer", "mcf",
		"libquantum", "milc", "namd", "soplex", "gamess",
	}
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.Lookup(n)
		if err != nil {
			panic(err) // subset names are part of the suite by construction
		}
		out = append(out, p)
	}
	return out
}

// cores returns the core sweep.
func (o Options) cores() []int {
	if o.Quick {
		return []int{0, 3, 6} // left edge, middle, right edge
	}
	return []int{0, 1, 2, 3, 4, 5, 6}
}

// stepCap bounds open-ended TUH searches: 800 steps = 160 ms covers the
// paper's slowest observed hotspot (150 ms); quick mode caps earlier.
func (o Options) stepCap() int {
	if o.Quick {
		return 250
	}
	return 800
}

// mustProfile looks up a suite profile and panics on unknown names (all
// call sites use compile-time constants).
func mustProfile(name string) workload.Profile {
	p, err := workload.Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// baseConfig assembles the standard single-workload run configuration,
// threading the experiment-wide metrics registry into every run.
func (o Options) baseConfig(node tech.Node, prof workload.Profile, core int, warm sim.WarmupMode, steps int) sim.Config {
	return sim.Config{
		Floorplan: floorplan.Config{Node: node},
		Workload:  prof,
		Core:      core,
		Warmup:    warm,
		Steps:     steps,
		Obs:       o.Obs,
	}
}

// ms formats seconds as milliseconds.
func ms(seconds float64) string {
	return fmt.Sprintf("%.2f", seconds*1e3)
}
