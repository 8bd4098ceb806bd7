package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/serve"
	"hotgauge/internal/sim"
	"hotgauge/internal/tech"
	"hotgauge/internal/thermal"
	"hotgauge/internal/workload"
)

// DefaultSeed is the seed the benchmark runs with when none is given;
// HeldOutSeed is kept aside for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// Workload shape. The seed picks profiles, cores and hot-job subsets and
// nothing else, so every seed yields the same mix of nodes, steps and
// run counts.
const (
	analysisNode  = 7
	analysisSteps = 400
	campaignSteps = 100
	campaignRuns  = 8 // half at 7 nm, half at 14 nm
	hotJobRuns    = 4 // two 7 nm and two 14 nm runs per hot job
)

// campaignNodes alternates the nodes so that, with the daemon running the
// job's runs in order, fast 7 nm and slow 14 nm completions interleave
// and the run-latency median does not fall between two clusters.
var campaignNodes = [campaignRuns]int{7, 14, 7, 14, 7, 14, 7, 14}

// runSpec is one generated run: everything the seed varies plus the
// fixed node and step count.
type runSpec struct {
	Profile string
	Node    int
	Core    int
	Steps   int
}

// key names the run in the reference table.
func (r runSpec) key() string {
	return fmt.Sprintf("%s/n%d/c%d/s%d", r.Profile, r.Node, r.Core, r.Steps)
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x686f7467617567^stream))
}

// analysisSpecs is the run-analysis cycle: every SPEC2006 profile once,
// in seeded order, each pinned to a seeded core.
func analysisSpecs(seed uint64) []runSpec {
	names := workload.Names()
	rng := newRand(seed, 1)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := make([]runSpec, len(names))
	for i, n := range names {
		out[i] = runSpec{Profile: n, Node: analysisNode, Core: rng.IntN(floorplan.NumCores), Steps: analysisSteps}
	}
	return out
}

// campaignSpecs is the eight-run campaign job: distinct seeded profiles
// on seeded cores, alternately at 7 nm and 14 nm.
func campaignSpecs(seed uint64) []runSpec {
	names := workload.Names()
	rng := newRand(seed, 2)
	perm := rng.Perm(len(names))
	out := make([]runSpec, campaignRuns)
	for i := range out {
		out[i] = runSpec{Profile: names[perm[i]], Node: campaignNodes[i], Core: rng.IntN(floorplan.NumCores), Steps: campaignSteps}
	}
	return out
}

// hotSubsets draws client c's next hot job: indices into campaignSpecs,
// sorted, two at each node. Client c's jobs always hold run c and never
// run 1-c, so the two clients' in-flight jobs never share a campaign key
// and the daemon's in-flight dedup cannot merge them.
type hotSubsets struct {
	client int
	rng    *rand.Rand
}

func newHotSubsets(seed uint64, client int) *hotSubsets {
	return &hotSubsets{client: client, rng: newRand(seed, 3+uint64(client))}
}

func (h *hotSubsets) next() []int {
	out := []int{h.client}
	for _, node := range []int{7, 14} {
		var pool []int
		for i, n := range campaignNodes {
			if n == node && i > 1 {
				pool = append(pool, i)
			}
		}
		want := hotJobRuns / 2
		if campaignNodes[h.client] == node {
			want--
		}
		for _, j := range h.rng.Perm(len(pool))[:want] {
			out = append(out, pool[j])
		}
	}
	slices.Sort(out)
	return out
}

// analysisConfig is the hotgauge CLI's run for spec: MLTD, severity,
// temperature percentiles and hotspot units recorded, idle warmup.
func analysisConfig(r runSpec, solver thermal.Solver) (sim.Config, error) {
	prof, err := workload.Lookup(r.Profile)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Floorplan: floorplan.Config{Node: tech.Node(r.Node)},
		Workload:  prof,
		Core:      r.Core,
		Steps:     r.Steps,
		Warmup:    sim.WarmupIdle,
		Solver:    solver,
		Record: sim.RecordOptions{
			MLTD: true, Severity: true, TempPercentiles: true, HotspotUnits: true,
		},
	}, nil
}

// wireSpecs is the daemon form of campaign runs: no record options and
// no solver, so the daemon's default applies.
func wireSpecs(rs []runSpec) []serve.ConfigSpec {
	out := make([]serve.ConfigSpec, len(rs))
	for i, r := range rs {
		out[i] = serve.ConfigSpec{Workload: r.Profile, Node: r.Node, Core: r.Core, Steps: r.Steps}
	}
	return out
}

// referenceSpecs lists every run any seed can generate, which is what
// the reference table covers: each profile on each core at 7 nm for 400
// steps (whose first 100 steps are the 7 nm campaign runs) and at 14 nm
// for 100 steps.
func referenceSpecs() []runSpec {
	var out []runSpec
	for _, n := range workload.Names() {
		for c := 0; c < floorplan.NumCores; c++ {
			out = append(out,
				runSpec{Profile: n, Node: analysisNode, Core: c, Steps: analysisSteps},
				runSpec{Profile: n, Node: 14, Core: c, Steps: campaignSteps})
		}
	}
	return out
}
