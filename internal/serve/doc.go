// Package serve is the campaign service daemon behind cmd/hotgauged: a
// JSON-over-HTTP front end that turns the batch toolchain into a
// long-running service. Clients POST a campaign (a list of run specs),
// poll job status, stream live progress as SSE or NDJSON (one event per
// resolved run), and fetch per-run results and Section-4-style text
// reports.
//
// The subsystem is built from three pieces: a bounded job queue with
// explicit backpressure (HTTP 429 + Retry-After when full), a worker
// pool that executes each job with per-job cancellation, and a
// content-addressed result cache — the canonical hash of each
// normalized sim.Config (Config.Hash) addresses its marshaled result
// under an LRU byte budget, so resubmitted configs are served
// byte-identically without re-simulation. A job's cache misses have one
// run path: every daemon is an internal/cluster coordinator, and a
// standalone daemon is one with zero workers, so its misses run on the
// coordinator's local executor, at most Options.RunWorkers at once and
// in submission order. Graceful shutdown drains in-flight jobs under a
// deadline while cancelling queued ones. Every moving part reports into
// an obs.Registry exposed at /metrics, with readiness (queue depth,
// in-flight jobs) at /healthz.
//
// The execution path is fault-tolerant: panicking, diverging or wedged
// runs fail alone with per-run attribution (sim.RunCtx's panic
// isolation plus Options.RunTimeout, counted in serve/timeouts), runs
// failing transiently are retried with backoff (Options.Retries) —
// diverging ones on the unconditionally stable ADI solver — jobs are
// bounded by Options.JobTimeout, and submission bodies by
// Options.MaxBodyBytes (413). Options.FaultRate wires internal/fault's
// random injection into every run for dev-mode recovery drills.
package serve
