// Package sim is the perf-power-therm co-simulation driver of Fig. 3: it
// advances the performance model one timestep at a time, converts the
// resulting per-unit activity into a power map (closing the
// leakage-temperature feedback loop against the current thermal state),
// steps the thermal solver, and runs the hotspot characterization of
// internal/core on every junction-temperature frame.
//
// One Run is one (floorplan, workload, core, warmup) configuration. Spec
// is its declarative JSON form — the hotgauged wire format and what the
// hotgauge CLI builds from its flags — and Spec.Config the one
// materialization; Spec.WithDefaults overlays a caller's defaults onto
// a spec's unset fields. Config.Normalized fills the remaining defaults
// (the hotspot definition field by field) exactly as Run and Hash do. The
// Campaign helper fans Runs out across CPUs for the paper's sweeps,
// continuing past individual failures and joining every per-run error.
// CampaignOpts adds worker caps, live Progress/ETA reporting, and
// metrics aggregation.
//
// Runs are fault-isolated: RunCtx recovers panics into per-run
// *PanicErrors (sim/panics), enforces the per-run wall-time budget of
// Config.MaxWallTime / CampaignOptions.RunTimeout at step boundaries
// (*RunTimeoutError, sim/timeouts), and fails non-finite solves with
// *SolverDivergedError. RunWithRetry re-attempts Retryable failures with
// exponential backoff + jitter (sim/retries), retrying a diverging solve
// on the unconditionally stable ADI solver; the returned Result always
// carries the caller's pristine Config.
//
// When Config.Obs is set, Run records per-stage wall time (setup, perf,
// power, thermal, detect, record — the Metric* names in metrics.go) and
// per-run counters into the internal/obs registry; a nil registry
// disables instrumentation at near-zero cost. Both CLIs surface the
// result via -metrics-json and the -v stage table.
package sim
