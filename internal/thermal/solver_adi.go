package thermal

import (
	"fmt"
	"math"

	"hotgauge/internal/obs"
)

// The ADI solver's defaults for a zero ErrTol and MaxSubsteps. They are
// part of every ADI config's content address, so changing either moves
// those hashes.
const (
	DefaultADIErrTol      = 0.1
	DefaultADIMaxSubsteps = 64
)

// ADI is an alternating-direction-implicit transient solver
// (Douglas–Gunn splitting, the 3-D generalization of Peaceman–Rachford)
// with adaptive substepping. Each substep solves three families of
// independent tridiagonal systems — one per grid direction — via the
// Thomas algorithm, so the cost is O(cells) with a small constant and
// the scheme is unconditionally stable: a 200 µs simulation timestep
// that costs the explicit solver ~20–75 stability-bounded substeps is
// usually a single ADI substep.
//
// In delta form the update for dT/dt = (A₁+A₂+A₃)T + f is
//
//	r   = dt·F(uⁿ)                     (full explicit RHS, incl. power)
//	(I − dt/2·A₁) w₁ = r               (x-line tridiagonal solves)
//	(I − dt/2·A₂) w₂ = w₁              (y-line tridiagonal solves)
//	(I − dt/2·A₃) w₃ = w₂              (z-column solves, incl. convection)
//	uⁿ⁺¹ = uⁿ + w₃
//
// where A₁/A₂ are the lateral couplings, A₃ is the vertical coupling
// plus the top-layer convection, and constant terms (injected power,
// convective inflow at ambient) live only in F.
//
// Error control is two-tier. ‖w₃ − r‖∞/2 — half the gap between the
// ADI update and the explicit forward-Euler delta, available for free,
// and the classical trapezoidal error estimate — is ~0 whenever dt
// resolves the dynamics (quasi-steady frames between power
// transients), so those frames commit after a single substep.
// When it exceeds ErrTol the step is under-resolved, and Step switches
// to Richardson step-doubling: recompute with 2, 4, … substeps and
// estimate the error of the n-substep field as ‖u(n) − u(n/2)‖∞/3
// (the scheme is second order in time, so halving the substep cuts the
// error ~4×, making consecutive levels differ by ~3× the finer level's
// error). The ladder converges quadratically and commits the finest
// field computed. The adaptation is stateless across Step calls, which
// is what makes checkpoint/resume of ADI runs bit-identical to an
// uninterrupted run.
//
// After the first Step on a grid it performs no per-Step allocations.
type ADI struct {
	// ErrTol bounds the estimated temperature error added per simulation
	// timestep [°C] (0 = DefaultADIErrTol). Quiescent frames commit in one
	// substep; frames whose local-truncation estimate exceeds ErrTol
	// subdivide by step-doubling until the Richardson estimate meets it.
	ErrTol float64
	// MaxSubsteps caps the adaptive subdivision (0 =
	// DefaultADIMaxSubsteps). A Step that still exceeds ErrTol at the
	// cap completes anyway (the scheme is unconditionally stable) and
	// increments StabilityHits.
	MaxSubsteps int

	// Substeps, when set, counts ADI substeps executed, including the
	// fail-fast substeps of abandoned subdivision attempts (obs counters
	// are nil-safe, so leaving these nil disables instrumentation at no
	// cost).
	Substeps *obs.Counter
	// Saved, when set, accumulates the explicit-equivalent substeps
	// avoided: ceil(dt/dtStable) minus the ADI substeps executed.
	Saved *obs.Counter
	// StabilityHits counts Step calls that hit MaxSubsteps with the
	// error estimate still above ErrTol.
	StabilityHits *obs.Counter

	// Cached Thomas-algorithm forward-elimination coefficients; valid
	// for (coefGrid, coefDT) and rebuilt — O(NL·(NX+NY)) — when either
	// changes.
	coefGrid *Grid
	coefDT   float64
	invDenX  []float64 // per (layer, ix): 1/denom of the x-line system
	invDenY  []float64 // per (layer, iy): 1/denom of the y-line system
	alpha    []float64 // per layer: dt·gLat/(2·capC)
	invDenZ  []float64 // per layer: 1/denom of the z-column system
	betaD    []float64 // per layer: dt·gUp[l-1]/(2·capC[l]) (down coupling)
	betaU    []float64 // per layer: dt·gUp[l]/(2·capC[l]) (up coupling)

	save  []float64 // uⁿ copy for restarting a subdivided attempt
	rhs0  []float64 // level-1 r = dt·F(uⁿ), kept for ladder reuse
	rhs   []float64 // per-substep r inside the ladder
	work  []float64 // sweeps transform r → w₃ in place here
	prev  []float64 // u(1), then the previous ladder level, for Richardson
	zeros []float64
	lp    [][]float64
}

// Name implements Solver.
func (a *ADI) Name() string { return "adi" }

// Step implements Solver. Every call first tries a single substep: if
// the free estimate ‖w₃ − r‖∞/2 is within ErrTol the frame is resolved
// and commits immediately. Otherwise it climbs the step-doubling ladder
// (2, 4, … substeps from the saved state), stopping when the Richardson
// estimate against the previous level meets ErrTol or MaxSubsteps is
// reached, and commits the finest field.
func (a *ADI) Step(g *Grid, s *State, power *Power, dt float64) error {
	if err := g.checkPower(power); err != nil {
		return err
	}
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	tol := a.ErrTol
	if tol <= 0 {
		tol = DefaultADIErrTol
	}
	maxSub := a.MaxSubsteps
	if maxSub <= 0 {
		maxSub = DefaultADIMaxSubsteps
	}
	cells := len(s.T)
	if cap(a.save) < cells {
		a.save = make([]float64, cells)
		a.rhs0 = make([]float64, cells)
		a.rhs = make([]float64, cells)
		a.work = make([]float64, cells)
		a.prev = make([]float64, cells)
	}
	if cap(a.zeros) < g.NX {
		a.zeros = make([]float64, g.NX)
	}
	save, rhs0, rhs := a.save[:cells], a.rhs0[:cells], a.rhs[:cells]
	work, prev, zeros := a.work[:cells], a.prev[:cells], a.zeros[:g.NX]
	a.lp = g.layerPower(power, a.lp)
	lp := a.lp

	// Level 1: single substep with the free resolved-dynamics estimate.
	// The candidate u(1) lands in prev rather than s.T, so accepting it
	// is one memmove and escalating needs no save/restore copies — s.T
	// still holds uⁿ, and prev is already the ladder's comparison field.
	a.prepare(g, dt)
	rhsRows(g, s.T, rhs0, lp, zeros, dt)
	a.sweepX(g, rhs0, work)
	a.sweepY(g, work)
	a.sweepZInto(g, work, s.T, prev)
	executed := int64(1)
	// ‖w₃ − r‖∞ is the forward/backward-Euler gap ≈ dt²‖A·F‖ — twice
	// the one-step error of the trapezoidal Douglas–Gunn core, whose
	// update sits at the curvature midpoint between the two Euler
	// endpoints (the splitting cross-terms are smaller still). Half the
	// gap is therefore the classical error estimate, and still observed
	// ≥1.3× conservative against the oracle on the paper's workloads.
	est := 0.5 * maxAbsDiff(work, rhs0)

	capped := false
	if est <= tol || maxSub <= 1 {
		copy(s.T, prev)
	} else {
		// Richardson ladder: u(n) vs u(n/2) until the estimate lands.
		// uⁿ is saved lazily here — only escalating steps pay for it.
		copy(save, s.T)
		for n := 2; ; n *= 2 {
			if n > 2 {
				copy(prev, s.T)
				copy(s.T, save)
			}
			sub := dt / float64(n)
			a.prepare(g, sub)
			// Every level's first substep starts from the saved uⁿ, and
			// the RHS is linear in dt, so r(uⁿ, dt/n) = r(uⁿ, dt)/n —
			// bit-exactly, n being a power of two (scaling by 2⁻ᵏ
			// commutes with every FP rounding). Feeding the scaled
			// level-1 RHS through the sweeps skips one rhsRows per
			// level.
			a.sweepXScaled(g, rhs0, work, 1/float64(n))
			a.sweepY(g, work)
			a.sweepZAdd(g, work, s.T)
			for k := 1; k < n; k++ {
				rhsRows(g, s.T, rhs, lp, zeros, sub)
				a.sweepX(g, rhs, work)
				a.sweepY(g, work)
				a.sweepZAdd(g, work, s.T)
			}
			executed += int64(n)
			// Richardson estimate for the finer field: the scheme is at
			// least second order, so u(n) and u(n/2) differ by ≥3× the
			// finer field's error. In the pre-asymptotic (stiff-transient)
			// regime convergence is faster than quadratic and diff/3 is
			// even more conservative — but extrapolating from the pair
			// would *inject* the coarse field's error, so Step commits the
			// plain finer field, never the extrapolant.
			if maxAbsDiff(s.T, prev)/3 <= tol {
				break
			}
			if n >= maxSub {
				capped = true
				break
			}
		}
	}
	a.Substeps.Add(executed)
	if capped {
		a.StabilityHits.Inc()
	}
	if saved := int64(math.Ceil(dt/g.dtStable)) - executed; saved > 0 {
		a.Saved.Add(saved)
	}
	return nil
}

// advanceOnce commits a single Douglas–Gunn substep of size dt on u and
// returns the local-truncation estimate ‖w₃ − r‖∞. It is the unit the
// reference oracle adiStepRef mirrors (see solver_equiv_test.go). power
// holds one plane slice per grid layer (nil for passive layers).
func (a *ADI) advanceOnce(g *Grid, u []float64, power [][]float64, dt float64) float64 {
	cells := len(u)
	if cap(a.rhs) < cells {
		a.rhs = make([]float64, cells)
		a.work = make([]float64, cells)
	}
	if cap(a.zeros) < g.NX {
		a.zeros = make([]float64, g.NX)
	}
	rhs, work := a.rhs[:cells], a.work[:cells]
	a.prepare(g, dt)
	rhsRows(g, u, rhs, power, a.zeros[:g.NX], dt)
	a.sweepX(g, rhs, work)
	a.sweepY(g, work)
	a.sweepZ(g, work)
	return commitEst(u, work, rhs)
}

// prepare (re)builds the Thomas forward-elimination coefficients for
// substep size dt. All three directions have layer-constant couplings,
// so the elimination denominators depend only on (layer, position) and
// can be shared by every line of that layer.
func (a *ADI) prepare(g *Grid, dt float64) {
	if a.coefGrid == g && a.coefDT == dt {
		return
	}
	nx, ny, nl := g.NX, g.NY, g.NL
	if cap(a.invDenX) < nl*nx {
		a.invDenX = make([]float64, nl*nx)
	}
	if cap(a.invDenY) < nl*ny {
		a.invDenY = make([]float64, nl*ny)
	}
	if cap(a.alpha) < nl {
		a.alpha = make([]float64, nl)
		a.invDenZ = make([]float64, nl)
		a.betaD = make([]float64, nl)
		a.betaU = make([]float64, nl)
	}
	a.invDenX, a.invDenY = a.invDenX[:nl*nx], a.invDenY[:nl*ny]
	a.alpha, a.invDenZ = a.alpha[:nl], a.invDenZ[:nl]
	a.betaD, a.betaU = a.betaD[:nl], a.betaU[:nl]

	for l := 0; l < nl; l++ {
		al := dt * g.gLat[l] / (2 * g.capC[l])
		a.alpha[l] = al
		thomasInvDen(a.invDenX[l*nx:(l+1)*nx], al)
		thomasInvDen(a.invDenY[l*ny:(l+1)*ny], al)

		if l > 0 {
			a.betaD[l] = dt * g.gUp[l-1] / (2 * g.capC[l])
		} else {
			a.betaD[l] = 0
		}
		if l < nl-1 {
			a.betaU[l] = dt * g.gUp[l] / (2 * g.capC[l])
		} else {
			a.betaU[l] = 0
		}
	}
	// z-direction: couplings vary per layer, and the top layer carries
	// the convective conductance on its diagonal.
	prev := 0.0
	for l := 0; l < nl; l++ {
		b := 1 + a.betaD[l] + a.betaU[l]
		if l == nl-1 {
			b += dt * g.gConv / (2 * g.capC[l])
		}
		// denom_l = b_l − a_l·c'_{l−1} with a_l = −βD[l], c'_{l−1} =
		// −βU[l−1]·invDen_{l−1}.
		den := b - a.betaD[l]*prev
		a.invDenZ[l] = 1 / den
		if l < nl-1 {
			prev = a.betaU[l] * a.invDenZ[l]
		}
	}
	a.coefGrid, a.coefDT = g, dt
}

// thomasInvDen fills inv with the reciprocal forward-elimination
// denominators of the symmetric constant-coefficient line system
// (I − dt/2·A_lat): diagonal 1+2α in the interior, 1+α at the two ends,
// off-diagonals −α. A 1-cell line is the identity.
func thomasInvDen(inv []float64, alpha float64) {
	n := len(inv)
	if n == 1 {
		inv[0] = 1
		return
	}
	den := 1 + alpha // first row (one neighbour)
	inv[0] = 1 / den
	prev := alpha * inv[0] // −c'_{i−1} = α·invDen_{i−1}
	for i := 1; i < n-1; i++ {
		den = 1 + 2*alpha - alpha*prev
		inv[i] = 1 / den
		prev = alpha * inv[i]
	}
	den = 1 + alpha - alpha*prev // last row (one neighbour)
	inv[n-1] = 1 / den
}

// sweepX solves (I − dt/2·A₁)x = src for every x-line, writing the
// solution into dst (src is left untouched; dst may not alias src).
// Lines are contiguous NX-cell rows, so both Thomas passes stream
// memory; the recurrences carry a serial dependency along each row, so
// four rows of a layer (which share their coefficients) are eliminated
// simultaneously to give the CPU independent chains to overlap.
func (a *ADI) sweepX(g *Grid, src, dst []float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	if nx == 1 {
		copy(dst, src) // no x neighbours: identity system
		return
	}
	for l := 0; l < nl; l++ {
		al := a.alpha[l]
		inv := a.invDenX[l*nx : (l+1)*nx]
		base := l * nx * ny
		iy := 0
		for ; iy+4 <= ny; iy += 4 {
			i0 := base + iy*nx
			s0, s1, s2, s3 := src[i0:i0+nx], src[i0+nx:i0+2*nx], src[i0+2*nx:i0+3*nx], src[i0+3*nx:i0+4*nx]
			r0, r1, r2, r3 := dst[i0:i0+nx], dst[i0+nx:i0+2*nx], dst[i0+2*nx:i0+3*nx], dst[i0+3*nx:i0+4*nx]
			// Forward elimination: d'_i = (d_i + α·d'_{i−1})·invDen_i.
			f := inv[0]
			p0, p1, p2, p3 := s0[0]*f, s1[0]*f, s2[0]*f, s3[0]*f
			r0[0], r1[0], r2[0], r3[0] = p0, p1, p2, p3
			for ix := 1; ix < nx; ix++ {
				f = inv[ix]
				p0 = (s0[ix] + al*p0) * f
				p1 = (s1[ix] + al*p1) * f
				p2 = (s2[ix] + al*p2) * f
				p3 = (s3[ix] + al*p3) * f
				r0[ix], r1[ix], r2[ix], r3[ix] = p0, p1, p2, p3
			}
			// Back substitution: x_i = d'_i + α·invDen_i·x_{i+1}.
			for ix := nx - 2; ix >= 0; ix-- {
				e := al * inv[ix]
				p0 = r0[ix] + e*p0
				p1 = r1[ix] + e*p1
				p2 = r2[ix] + e*p2
				p3 = r3[ix] + e*p3
				r0[ix], r1[ix], r2[ix], r3[ix] = p0, p1, p2, p3
			}
		}
		for ; iy < ny; iy++ {
			i0 := base + iy*nx
			s, row := src[i0:i0+nx], dst[i0:i0+nx]
			prev := s[0] * inv[0]
			row[0] = prev
			for ix := 1; ix < nx; ix++ {
				prev = (s[ix] + al*prev) * inv[ix]
				row[ix] = prev
			}
			next := row[nx-1]
			for ix := nx - 2; ix >= 0; ix-- {
				next = row[ix] + al*inv[ix]*next
				row[ix] = next
			}
		}
	}
}

// sweepXScaled is sweepX on k·src without materializing the scaled
// vector: the system is linear, so scaling the RHS inside the forward
// elimination solves (I − dt/2·A₁)x = k·src. The ladder uses it with
// k = 1/n to reuse the level-1 RHS (see Step).
func (a *ADI) sweepXScaled(g *Grid, src, dst []float64, k float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	if nx == 1 {
		for i := range dst {
			dst[i] = src[i] * k
		}
		return
	}
	for l := 0; l < nl; l++ {
		al := a.alpha[l]
		inv := a.invDenX[l*nx : (l+1)*nx]
		base := l * nx * ny
		iy := 0
		for ; iy+4 <= ny; iy += 4 {
			i0 := base + iy*nx
			s0, s1, s2, s3 := src[i0:i0+nx], src[i0+nx:i0+2*nx], src[i0+2*nx:i0+3*nx], src[i0+3*nx:i0+4*nx]
			r0, r1, r2, r3 := dst[i0:i0+nx], dst[i0+nx:i0+2*nx], dst[i0+2*nx:i0+3*nx], dst[i0+3*nx:i0+4*nx]
			f := inv[0]
			p0, p1, p2, p3 := s0[0]*k*f, s1[0]*k*f, s2[0]*k*f, s3[0]*k*f
			r0[0], r1[0], r2[0], r3[0] = p0, p1, p2, p3
			for ix := 1; ix < nx; ix++ {
				f = inv[ix]
				p0 = (s0[ix]*k + al*p0) * f
				p1 = (s1[ix]*k + al*p1) * f
				p2 = (s2[ix]*k + al*p2) * f
				p3 = (s3[ix]*k + al*p3) * f
				r0[ix], r1[ix], r2[ix], r3[ix] = p0, p1, p2, p3
			}
			for ix := nx - 2; ix >= 0; ix-- {
				e := al * inv[ix]
				p0 = r0[ix] + e*p0
				p1 = r1[ix] + e*p1
				p2 = r2[ix] + e*p2
				p3 = r3[ix] + e*p3
				r0[ix], r1[ix], r2[ix], r3[ix] = p0, p1, p2, p3
			}
		}
		for ; iy < ny; iy++ {
			i0 := base + iy*nx
			s, row := src[i0:i0+nx], dst[i0:i0+nx]
			prev := s[0] * k * inv[0]
			row[0] = prev
			for ix := 1; ix < nx; ix++ {
				prev = (s[ix]*k + al*prev) * inv[ix]
				row[ix] = prev
			}
			next := row[nx-1]
			for ix := nx - 2; ix >= 0; ix-- {
				next = row[ix] + al*inv[ix]*next
				row[ix] = next
			}
		}
	}
}

// sweepY solves the y-line systems in place. The elimination recurrence
// couples consecutive iy rows of a layer, so both passes iterate rows in
// order with a contiguous inner loop over ix — same arithmetic as a
// per-column Thomas solve, but cache-friendly.
func (a *ADI) sweepY(g *Grid, w []float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	if ny == 1 {
		return
	}
	for l := 0; l < nl; l++ {
		al := a.alpha[l]
		inv := a.invDenY[l*ny : (l+1)*ny]
		base := l * nx * ny
		first := w[base : base+nx]
		inv0 := inv[0]
		for ix := 0; ix < nx; ix++ {
			first[ix] *= inv0
		}
		for iy := 1; iy < ny; iy++ {
			cur := w[base+iy*nx : base+iy*nx+nx]
			prev := w[base+(iy-1)*nx : base+(iy-1)*nx+nx]
			f := inv[iy]
			for ix := 0; ix < nx; ix++ {
				cur[ix] = (cur[ix] + al*prev[ix]) * f
			}
		}
		for iy := ny - 2; iy >= 0; iy-- {
			cur := w[base+iy*nx : base+iy*nx+nx]
			next := w[base+(iy+1)*nx : base+(iy+1)*nx+nx]
			f := al * inv[iy]
			for ix := 0; ix < nx; ix++ {
				cur[ix] += f * next[ix]
			}
		}
	}
}

// sweepZ solves the z-column systems in place, plane by plane. The
// column matrix is the same for every (ix, iy), with per-layer
// couplings and the convective term on the top diagonal.
func (a *ADI) sweepZ(g *Grid, w []float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	first := w[:plane]
	inv0 := a.invDenZ[0]
	for j := 0; j < plane; j++ {
		first[j] *= inv0
	}
	for l := 1; l < nl; l++ {
		cur := w[l*plane : (l+1)*plane]
		prev := w[(l-1)*plane : l*plane]
		bd, f := a.betaD[l], a.invDenZ[l]
		for j := 0; j < plane; j++ {
			cur[j] = (cur[j] + bd*prev[j]) * f
		}
	}
	for l := nl - 2; l >= 0; l-- {
		cur := w[l*plane : (l+1)*plane]
		next := w[(l+1)*plane : (l+2)*plane]
		f := a.betaU[l] * a.invDenZ[l]
		for j := 0; j < plane; j++ {
			cur[j] += f * next[j]
		}
	}
}

// sweepZAdd is sweepZ fused with the commit u += w₃: each z-column's
// back-substitution finalizes one layer per pass, so the add folds into
// the same traversal instead of costing an extra full-array pass. The
// per-element sums are the exact ops addTo would do, so the result is
// bit-identical to sweepZ followed by addTo.
func (a *ADI) sweepZAdd(g *Grid, w, u []float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	first := w[:plane]
	inv0 := a.invDenZ[0]
	for j := 0; j < plane; j++ {
		first[j] *= inv0
	}
	for l := 1; l < nl; l++ {
		cur := w[l*plane : (l+1)*plane]
		prev := w[(l-1)*plane : l*plane]
		bd, f := a.betaD[l], a.invDenZ[l]
		for j := 0; j < plane; j++ {
			cur[j] = (cur[j] + bd*prev[j]) * f
		}
	}
	// The top layer is final after forward elimination; commit it, then
	// commit each remaining layer as back-substitution finalizes it.
	top := w[(nl-1)*plane : nl*plane]
	ut := u[(nl-1)*plane : nl*plane]
	for j := 0; j < plane; j++ {
		ut[j] += top[j]
	}
	for l := nl - 2; l >= 0; l-- {
		cur := w[l*plane : (l+1)*plane]
		next := w[(l+1)*plane : (l+2)*plane]
		ul := u[l*plane : (l+1)*plane]
		f := a.betaU[l] * a.invDenZ[l]
		for j := 0; j < plane; j++ {
			v := cur[j] + f*next[j]
			cur[j] = v
			ul[j] += v
		}
	}
}

// sweepZInto is sweepZ fused with out = u + w₃: the candidate field is
// written to out while u itself stays untouched, letting the caller
// accept it with a memmove or discard it for free. The per-element sums
// are the exact ops a commit would do, so out is bit-identical to
// committing w₃ into a copy of u.
func (a *ADI) sweepZInto(g *Grid, w, u, out []float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	first := w[:plane]
	inv0 := a.invDenZ[0]
	for j := 0; j < plane; j++ {
		first[j] *= inv0
	}
	for l := 1; l < nl; l++ {
		cur := w[l*plane : (l+1)*plane]
		prev := w[(l-1)*plane : l*plane]
		bd, f := a.betaD[l], a.invDenZ[l]
		for j := 0; j < plane; j++ {
			cur[j] = (cur[j] + bd*prev[j]) * f
		}
	}
	top := w[(nl-1)*plane : nl*plane]
	ut := u[(nl-1)*plane : nl*plane]
	ot := out[(nl-1)*plane : nl*plane]
	for j := 0; j < plane; j++ {
		ot[j] = ut[j] + top[j]
	}
	for l := nl - 2; l >= 0; l-- {
		cur := w[l*plane : (l+1)*plane]
		next := w[(l+1)*plane : (l+2)*plane]
		ul := u[l*plane : (l+1)*plane]
		ol := out[l*plane : (l+1)*plane]
		f := a.betaU[l] * a.invDenZ[l]
		for j := 0; j < plane; j++ {
			v := cur[j] + f*next[j]
			cur[j] = v
			ol[j] = ul[j] + v
		}
	}
}

// rhsRows writes r = dt·F(cur) — the explicit forward-Euler update delta
// including power injection and convection — into out. Same boundary
// peeling and sum form as stepRows, minus the +t; power holds one plane
// slice per grid layer (nil for passive layers).
func rhsRows(g *Grid, cur, out []float64, power [][]float64, zeros []float64, dt float64) {
	nx, ny, nl := g.NX, g.NY, g.NL
	plane := nx * ny
	amb := g.Ambient
	rows := nl * ny
	for r := 0; r < rows; r++ {
		l, iy := r/ny, r%ny
		gl := g.gLat[l]
		invC := dt / g.capC[l]
		i0 := r * nx

		gN, gS, gDown, gUp, convG := 0.0, 0.0, 0.0, 0.0, 0.0
		nOff, sOff, dOff, uOff := 0, 0, 0, 0
		if iy > 0 {
			gN, nOff = gl, nx
		}
		if iy < ny-1 {
			gS, sOff = gl, nx
		}
		if l > 0 {
			gDown, dOff = g.gUp[l-1], plane
		}
		if l < nl-1 {
			gUp, uOff = g.gUp[l], plane
		} else {
			convG = g.gConv
		}
		c := cur[i0 : i0+nx]
		nn := cur[i0-nOff : i0-nOff+nx]
		ss := cur[i0+sOff : i0+sOff+nx]
		dd := cur[i0-dOff : i0-dOff+nx]
		uu := cur[i0+uOff : i0+uOff+nx]
		pw := zeros[:nx]
		lpw := power[l]
		if lpw != nil {
			pw = lpw[iy*nx : iy*nx+nx]
		}
		o := out[i0 : i0+nx]

		cp := convG * amb
		gEdge := gl + gN + gS + gDown + gUp + convG
		gInt := gEdge + gl

		if nx == 1 {
			lat := gN*nn[0] + gS*ss[0]
			o[0] = (lat + (gDown*dd[0] + gUp*uu[0]) + (cp + pw[0]) - (gEdge-gl)*c[0]) * invC
			continue
		}
		lat := gl*c[1] + gN*nn[0] + gS*ss[0]
		o[0] = (lat + (gDown*dd[0] + gUp*uu[0]) + (cp + pw[0]) - gEdge*c[0]) * invC

		if lpw == nil && l > 0 && l < nl-1 && iy > 0 && iy < ny-1 {
			// Pure-interior row (no convection, no power): one lateral
			// conductance multiplies the whole neighbour sum, exactly as
			// in stepRows.
			gSum4 := 4*gl + gDown + gUp
			for ix := 1; ix < nx-1; ix++ {
				t := c[ix]
				sum := (c[ix-1] + c[ix+1]) + (nn[ix] + ss[ix])
				o[ix] = (gl*sum + (gDown*dd[ix] + gUp*uu[ix]) - gSum4*t) * invC
			}
		} else {
			for ix := 1; ix < nx-1; ix++ {
				t := c[ix]
				lat := gl*(c[ix-1]+c[ix+1]) + (gN*nn[ix] + gS*ss[ix])
				o[ix] = (lat + (gDown*dd[ix] + gUp*uu[ix]) + (cp + pw[ix]) - gInt*t) * invC
			}
		}
		ix := nx - 1
		lat = gl*c[ix-1] + gN*nn[ix] + gS*ss[ix]
		o[ix] = (lat + (gDown*dd[ix] + gUp*uu[ix]) + (cp + pw[ix]) - gEdge*c[ix]) * invC
	}
}

// commitEst adds the ADI update w into u and returns ‖w − r‖∞, the
// resolved-dynamics estimate, in the same pass.
func commitEst(u, w, r []float64) float64 {
	m := 0.0
	for i := range u {
		u[i] += w[i]
		if d := math.Abs(w[i] - r[i]); d > m {
			m = d
		}
	}
	return m
}

// maxAbsDiff returns ‖a − b‖∞.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
