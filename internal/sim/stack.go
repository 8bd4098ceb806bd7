package sim

import (
	"fmt"
	"sort"

	"hotgauge/internal/floorplan"
	"hotgauge/internal/geometry"
	"hotgauge/internal/power"
	"hotgauge/internal/thermal"
)

// Stacked-scenario presets: named multi-die thermal stacks with the die
// roles resolved, selectable via Config.StackPreset. Each preset pairs a
// thermal.Layer stack carrying two active planes with the knowledge of
// which plane is the logic die (where core power lands and hotspot
// detection runs) and which is the memory die (driven by the DRAM power
// model from the core's memory-access rates).
const (
	// StackCoreOnMemory stacks the logic die above a DRAM die: the core
	// keeps its short path to the heatsink, the memory die sits buried.
	StackCoreOnMemory = "core-on-memory"
	// StackMemoryOnCore buries the logic die under the DRAM die — the
	// thermally aggressive orientation 3D-stacking papers warn about.
	StackMemoryOnCore = "memory-on-core"
	// StackGPUSM models a GTX480-style stack: an SM die over a
	// frame-buffer DRAM die with an inter-die TIM bond.
	StackGPUSM = "gpu-sm"
)

// stackScenario resolves a preset name into the stack and die roles.
type stackScenario struct {
	Name  string
	Stack []thermal.Layer
	// CoreDie and MemDie are active-plane indices (bottom-up order, as
	// Grid.ActiveLayers counts them). MemDie is -1 when the scenario has
	// no memory die.
	CoreDie int
	MemDie  int
	// Banks is the DRAM bank count of the memory plan (0 = default).
	Banks int
}

// stackScenarioFor resolves a preset name; the empty name means "no
// preset" (single-die default) and returns nil. Each call returns fresh
// layer slices, so callers may mutate their copy freely.
func stackScenarioFor(name string) (*stackScenario, error) {
	switch name {
	case "":
		return nil, nil
	case StackCoreOnMemory:
		return &stackScenario{Name: name, Stack: thermal.CoreOnMemoryStack(), CoreDie: 1, MemDie: 0}, nil
	case StackMemoryOnCore:
		return &stackScenario{Name: name, Stack: thermal.MemoryOnCoreStack(), CoreDie: 0, MemDie: 1}, nil
	case StackGPUSM:
		return &stackScenario{Name: name, Stack: thermal.GPUSMStack(), CoreDie: 1, MemDie: 0}, nil
	default:
		return nil, fmt.Errorf("sim: unknown stack preset %q (have %v)", name, StackPresets())
	}
}

// StackPresets lists the known stacked-scenario preset names, sorted.
func StackPresets() []string {
	names := []string{StackCoreOnMemory, StackMemoryOnCore, StackGPUSM}
	sort.Strings(names)
	return names
}

// KnownStackPreset reports whether name resolves to a stacked-scenario
// preset; the empty name (single-die default) counts as known.
func KnownStackPreset(name string) bool {
	_, err := stackScenarioFor(name)
	return err == nil
}

// DefaultRowHitRate is the DRAM row-buffer hit rate assumed when deriving
// command rates from the core's aggregate memory-access counters.
const DefaultRowHitRate = 0.6

// stackRuntime is the per-run machinery of the power-injection planes:
// one power frame per active die, the DRAM model and raster for the
// memory die. A single-die
// run gets a one-frame runtime whose arithmetic is bit-identical to the
// pre-stacking code path.
type stackRuntime struct {
	scn       *stackScenario // nil without a preset
	corePlane int            // active-plane index carrying core power
	memPlane  int            // active-plane index of the DRAM die (-1 = none)
	frames    []*geometry.Field
	pw        *thermal.Power
	dram      *power.DRAMModel
	memRaster *rasterCache
}

// newStackRuntime builds the injection planes for the run's grid. Without
// a preset, the first active plane carries the core power and any further
// active planes stay unpowered (a custom multi-active stack supplies its
// own semantics downstream).
func newStackRuntime(cfg *Config, fp *floorplan.Floorplan, grid *thermal.Grid) (*stackRuntime, error) {
	scn, err := stackScenarioFor(cfg.StackPreset)
	if err != nil {
		return nil, err
	}
	st := &stackRuntime{scn: scn, memPlane: -1}
	planes := grid.ActiveLayers()
	st.frames = make([]*geometry.Field, planes)
	for i := range st.frames {
		st.frames[i] = geometry.NewField(grid.NX, grid.NY, cfg.Resolution)
	}
	st.pw = thermal.NewPower(st.frames...)
	if scn != nil {
		if scn.CoreDie >= planes || (scn.MemDie >= 0 && scn.MemDie >= planes) {
			return nil, fmt.Errorf("sim: stack preset %q expects more active planes than the grid has (%d)",
				scn.Name, planes)
		}
		st.corePlane = scn.CoreDie
		st.memPlane = scn.MemDie
	}
	if st.memPlane >= 0 {
		plan, err := floorplan.NewMemoryPlan(fp.Die, scn.Banks)
		if err != nil {
			return nil, err
		}
		st.dram, err = power.NewDRAMModel(plan, power.DefaultDRAMParams())
		if err != nil {
			return nil, err
		}
		memBase := grid.ActiveLayerIndex(st.memPlane) * grid.NX * grid.NY
		st.memRaster = newRasterCache(plan.Units, grid.NX, grid.NY, cfg.Resolution, memBase)
	}
	return st, nil
}

// coreFrame is the power frame of the logic die — the frame the main
// raster injects into each step.
func (st *stackRuntime) coreFrame() *geometry.Field { return st.frames[st.corePlane] }

// stepMemory evaluates the memory die's power for one step: command rates
// derived from the cores' aggregate memory traffic, refresh duty derated
// by the memory die's own temperature (the retention feedback loop), all
// rasterized onto the memory plane. Returns the die's total power [W].
func (st *stackRuntime) stepMemory(grid *thermal.Grid, state *thermal.State, accesses, loads, stores float64, cyclesPerStep uint64) float64 {
	if st.dram == nil {
		return 0
	}
	perSec := accesses * 5e9 / float64(cyclesPerStep)
	readFrac := 2.0 / 3
	if t := loads + stores; t > 0 {
		readFrac = loads / t
	}
	rates := power.AccessRatesFor(perSec, readFrac, DefaultRowHitRate)
	rates.RefreshDuty = power.RefreshDutyForTemp(grid.MaxTempAt(state, st.memPlane))
	res := st.dram.Compute(rates)
	f := st.frames[st.memPlane]
	for i := range f.Data {
		f.Data[i] = 0
	}
	st.memRaster.inject(f, res)
	return res.TotalPower()
}

// dieLabels names the active planes bottom-up, for per-die reporting.
func dieLabels(grid *thermal.Grid) []string {
	out := make([]string, grid.ActiveLayers())
	for i := range out {
		out[i] = grid.ActiveLayerName(i)
	}
	return out
}
