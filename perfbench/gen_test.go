package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// mix is what every seed must keep fixed: nodes, steps and run counts.
type mix struct {
	nodes, steps []int
}

func mixOf(rs []runSpec) mix {
	var m mix
	for _, r := range rs {
		m.nodes = append(m.nodes, r.Node)
		m.steps = append(m.steps, r.Steps)
	}
	return m
}

func TestSeedIsDeterministic(t *testing.T) {
	for _, seed := range []uint64{DefaultSeed, HeldOutSeed} {
		if !reflect.DeepEqual(analysisSpecs(seed), analysisSpecs(seed)) {
			t.Errorf("seed %d: run-analysis specs differ between calls", seed)
		}
		if !reflect.DeepEqual(campaignSpecs(seed), campaignSpecs(seed)) {
			t.Errorf("seed %d: campaign specs differ between calls", seed)
		}
		a, b := newHotSubsets(seed, 0), newHotSubsets(seed, 0)
		for i := 0; i < 50; i++ {
			if x, y := a.next(), b.next(); !slices.Equal(x, y) {
				t.Fatalf("seed %d: hot subset %d differs: %v vs %v", seed, i, x, y)
			}
		}
	}
}

func TestSeedsKeepTheMix(t *testing.T) {
	if reflect.DeepEqual(campaignSpecs(DefaultSeed), campaignSpecs(HeldOutSeed)) {
		t.Fatal("default and held-out seeds generate the same campaign")
	}
	for _, seed := range []uint64{HeldOutSeed, 2, 3, 1 << 40} {
		if got, want := mixOf(analysisSpecs(seed)), mixOf(analysisSpecs(DefaultSeed)); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: run-analysis mix %v, want %v", seed, got, want)
		}
		if got, want := mixOf(campaignSpecs(seed)), mixOf(campaignSpecs(DefaultSeed)); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: campaign mix %v, want %v", seed, got, want)
		}
	}
}

func TestHotSubsets(t *testing.T) {
	for c := 0; c < 2; c++ {
		h := newHotSubsets(HeldOutSeed, c)
		for i := 0; i < 200; i++ {
			s := h.next()
			n7 := 0
			for _, j := range s {
				if campaignNodes[j] == 7 {
					n7++
				}
			}
			// Client c's jobs hold run c and never run 1-c, so the two
			// clients never submit the same campaign key at once.
			if len(s) != hotJobRuns || n7 != hotJobRuns/2 || !slices.Contains(s, c) || slices.Contains(s, 1-c) || !slices.IsSorted(s) {
				t.Fatalf("client %d job %d: bad subset %v", c, i, s)
			}
		}
	}
}

// TestReferenceCoversEverySeed checks that the committed oracle table
// holds a row for every run any seed can generate.
func TestReferenceCoversEverySeed(t *testing.T) {
	ref, err := parseReference(referenceTSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range referenceSpecs() {
		short := r
		short.Steps = campaignSteps
		for _, k := range []string{r.key(), short.key()} {
			if _, ok := ref[k]; !ok {
				t.Errorf("reference table lacks %s", k)
			}
		}
	}
	for _, seed := range []uint64{DefaultSeed, HeldOutSeed} {
		for _, r := range append(analysisSpecs(seed), campaignSpecs(seed)...) {
			if _, ok := ref[r.key()]; !ok {
				t.Errorf("seed %d: reference table lacks %s", seed, r.key())
			}
		}
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json declares exactly the
// metrics this program reports.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", m.EndToEnd, endToEnd)
	}
	if !slices.Equal(m.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program reports %v", m.PerLayer, perLayer)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
}
