// Package thermal implements the transient thermal-simulation substrate of
// the toolchain: the role 3D-ICE 3.0 plays in the original. It is a
// from-scratch 3-D finite-volume compact thermal model (an RC network over
// a regular grid) of the Fig. 4 stack: silicon die (split into active and
// bulk layers for vertical resolution, as §III-C requires), solder TIM,
// copper heat spreader, thermal grease, and a fan-cooled heatsink with a
// convective boundary to ambient.
//
// Two transient solvers are provided: ADI, an unconditionally stable
// alternating-direction-implicit solver with adaptive substepping (the
// default and the divergence fallback), and an explicit forward-Euler
// solver with an automatically derived stability substep (the reference
// oracle, stepping on ADI's explicit-delta kernel). A steady-state SOR solver, SolveSteady, serves
// Ψ/TDP computation (Table IV) and idle-warmup initialization.
//
// Both transient solvers optionally report their work into internal/obs
// counters (Substeps, StabilityHits): the explicit solver counts its
// stability-bounded substeps, ADI its Douglas–Gunn substeps (and, in
// Saved, the substeps its adaptive control avoided).
package thermal
