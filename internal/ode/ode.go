// Package ode implements the differential-equation characterization of §3
// of the paper: the peer-degree system z (eq. 7), the segment-degree system
// w (eq. 8), and the segment collection matrix m (eq. 12), together with
// their steady-state solutions.
//
// The z system is closed and nonlinear (through the 1−z_0 and 1−z_B
// factors); it is integrated to its fixed point with RK4. Given the steady
// z, the w system and each column of the m system become *linear*
// tridiagonal balance equations in the degree index, which are solved
// exactly with the Thomas algorithm — no truncation-time error, only the
// configurable degree cutoff.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the model parameters in the paper's notation. All rates are
// per unit time.
type Params struct {
	// Lambda is the per-peer block generation rate λ.
	Lambda float64
	// Mu is the per-peer gossip bandwidth μ.
	Mu float64
	// Gamma is the block deletion rate γ.
	Gamma float64
	// C is the normalized aggregate server capacity c.
	C float64
	// S is the segment size s.
	S int
	// B truncates the peer-degree system (the buffer size). Zero picks a
	// default large enough for the Theorem 1 regime.
	B int
	// W truncates the segment-degree systems. Zero picks a default.
	W int
}

// withDefaults fills B and W with generous truncation points.
func (p Params) withDefaults() Params {
	rhoBound := (p.Mu + p.Lambda) / p.Gamma
	if p.B == 0 {
		p.B = int(6*rhoBound) + 3*p.S + 10
	}
	if p.W == 0 {
		p.W = int(4*rhoBound) + 2*p.S + 30
	}
	return p
}

func (p Params) validate() error {
	switch {
	case p.Lambda < 0:
		return errors.New("ode: negative Lambda")
	case p.Mu < 0:
		return errors.New("ode: negative Mu")
	case p.Gamma <= 0:
		return errors.New("ode: Gamma must be positive")
	case p.C < 0:
		return errors.New("ode: negative C")
	case p.S < 1:
		return fmt.Errorf("ode: S = %d", p.S)
	case p.B < p.S:
		return fmt.Errorf("ode: B = %d below S = %d", p.B, p.S)
	case p.W < p.S:
		return fmt.Errorf("ode: W = %d below S = %d", p.W, p.S)
	}
	return nil
}

// SteadyState is the fixed point of the three ODE systems.
type SteadyState struct {
	Params Params

	// Z[i] is z̃_i for i = 0..B, the fraction of peers holding i blocks.
	Z []float64
	// E is ẽ = Σ i·z̃_i, the average number of blocks per peer.
	E float64
	// Rho is Theorem 1's ρ = (1−z̃_0)μ/γ + λ/γ.
	Rho float64
	// W[i] is w̃_i for i = 1..W (index 0 unused), segments of degree i per
	// peer.
	W []float64
	// M[i][j] is m̃_i^j for i = 1..W, j = 0..s: degree-i segments with j
	// blocks collected by the servers, per peer.
	M [][]float64
}

// Solve integrates the z system to its fixed point and solves the w and m
// steady states.
func Solve(p Params) (*SteadyState, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	z := solveZ(p)
	ss := &SteadyState{Params: p, Z: z}
	ss.E = 0
	for i, zi := range z {
		ss.E += float64(i) * zi
	}
	ss.Rho = (1-z[0])*p.Mu/p.Gamma + p.Lambda/p.Gamma
	if ss.E <= 0 {
		// Degenerate (no traffic); leave w/m zero.
		ss.W = make([]float64, p.W+1)
		ss.M = zeroMatrix(p.W, p.S)
		return ss, nil
	}
	ss.W = solveW(p, z[0], ss.E)
	ss.M = solveM(p, z[0], ss.E)
	return ss, nil
}

// Z0 returns z̃_0, the steady-state fraction of empty peers.
func (ss *SteadyState) Z0() float64 { return ss.Z[0] }

// SumW returns Σ_{i≥1} w̃_i, the number of distinct live segments per peer.
func (ss *SteadyState) SumW() float64 {
	var sum float64
	for i := 1; i < len(ss.W); i++ {
		sum += ss.W[i]
	}
	return sum
}

// SumMs returns Σ_{i≥1} m̃_i^s, the density of live segments already fully
// collected ("good segments").
func (ss *SteadyState) SumMs() float64 {
	s := ss.Params.S
	var sum float64
	for i := 1; i < len(ss.M); i++ {
		sum += ss.M[i][s]
	}
	return sum
}

// EdgeWeightedMs returns Σ_{i≥1} i·m̃_i^s, the edge mass of good segments
// that drives the redundancy term of Theorem 2.
func (ss *SteadyState) EdgeWeightedMs() float64 {
	s := ss.Params.S
	var sum float64
	for i := 1; i < len(ss.M); i++ {
		sum += float64(i) * ss.M[i][s]
	}
	return sum
}

// zDeriv writes the right-hand side of eq. (7) (with the exact Kronecker
// boundary handling of eqs. (1), (3), (5)) into dz.
func zDeriv(p Params, z, dz []float64) {
	b := p.B
	s := p.S
	transfer := 0.0
	if denom := 1 - z[b]; denom > 1e-300 {
		transfer = (1 - z[0]) * p.Mu / denom
	}
	injRate := p.Lambda / float64(s)
	for i := 0; i <= b; i++ {
		var d float64
		// Block encoding and transfer (eq. 1): peers of degree i < B gain a
		// block; i−1 → i inflow for i ≥ 1.
		if i >= 1 {
			d += transfer * z[i-1]
		}
		if i < b {
			d -= transfer * z[i]
		}
		// Block deletion (eq. 3).
		if i < b {
			d += float64(i+1) * z[i+1] * p.Gamma
		}
		d -= float64(i) * z[i] * p.Gamma
		// Segment injection (eq. 5): peers with degree ≤ B−s accept a batch
		// of s blocks.
		if i <= b-s {
			d -= injRate * z[i]
		}
		if i >= s && i-s <= b-s {
			d += injRate * z[i-s]
		}
		dz[i] = d
	}
}

// zIntegrator steps the z system with RK4 from the empty network.
type zIntegrator struct {
	p                  Params
	z                  []float64
	dt                 float64
	k1, k2, k3, k4, tm []float64
}

func newZIntegrator(p Params) *zIntegrator {
	n := p.B + 1
	z := make([]float64, n)
	z[0] = 1
	// Step bounded by the stiffest rate (deletion at degree B); RK4's
	// real-axis stability limit is ~2.78/|λ_max|.
	maxRate := float64(p.B)*p.Gamma + p.Mu + p.Lambda
	return &zIntegrator{
		p: p, z: z, dt: 1.0 / maxRate,
		k1: make([]float64, n), k2: make([]float64, n),
		k3: make([]float64, n), k4: make([]float64, n),
		tm: make([]float64, n),
	}
}

// step advances one RK4 step.
func (zi *zIntegrator) step() {
	z, dt := zi.z, zi.dt
	zDeriv(zi.p, z, zi.k1)
	axpy(zi.tm, z, zi.k1, dt/2)
	zDeriv(zi.p, zi.tm, zi.k2)
	axpy(zi.tm, z, zi.k2, dt/2)
	zDeriv(zi.p, zi.tm, zi.k3)
	axpy(zi.tm, z, zi.k3, dt)
	zDeriv(zi.p, zi.tm, zi.k4)
	for i := range z {
		z[i] += dt / 6 * (zi.k1[i] + 2*zi.k2[i] + 2*zi.k3[i] + zi.k4[i])
		if z[i] < 0 {
			z[i] = 0
		}
	}
}

// e returns Σ i·z_i, the current average blocks per peer.
func (zi *zIntegrator) e() float64 {
	var e float64
	for i, v := range zi.z {
		e += float64(i) * v
	}
	return e
}

// converged reports whether the derivative has vanished.
func (zi *zIntegrator) converged(tol float64) bool {
	zDeriv(zi.p, zi.z, zi.k1)
	return maxAbs(zi.k1) < tol*math.Max(1, zi.p.Lambda)
}

// solveZ integrates the z system from the empty network to its fixed point.
func solveZ(p Params) []float64 {
	zi := newZIntegrator(p)
	const (
		horizon  = 400.0 // in units of 1/γ-normalized model time
		checkGap = 50    // steps between convergence checks
		tol      = 1e-10
	)
	steps := int(horizon / (p.Gamma * zi.dt))
	for step := 0; step < steps; step++ {
		zi.step()
		if step%checkGap == 0 && zi.converged(tol) {
			break
		}
	}
	// Renormalize the tiny numerical drift in Σz.
	z := zi.z
	var sum float64
	for _, v := range z {
		sum += v
	}
	if sum > 0 {
		for i := range z {
			z[i] /= sum
		}
	}
	return z
}

// TrajectoryPoint is one sample of the transient z solution.
type TrajectoryPoint struct {
	T  float64 // model time
	E  float64 // average blocks per peer, e(t)
	Z0 float64 // empty-peer fraction
}

// EvolveE integrates the z system from the empty network over [0, horizon]
// and samples e(t) and z_0(t) at the given interval, each sample labelled
// with the interval mark its step passed, as EvolveFull does. This is the
// transient behaviour Wormald's theorem [12] says the finite-N process
// tracks; A7 overlays it on the simulator started empty.
func EvolveE(p Params, horizon, interval float64) ([]TrajectoryPoint, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 || interval <= 0 {
		return nil, errors.New("ode: horizon and interval must be positive")
	}
	zi := newZIntegrator(p)
	out := []TrajectoryPoint{{T: 0, E: zi.e(), Z0: zi.z[0]}}
	next := interval
	for t := 0.0; t < horizon; {
		zi.step()
		t += zi.dt
		for next <= t && next <= horizon {
			out = append(out, TrajectoryPoint{T: next, E: zi.e(), Z0: zi.z[0]})
			next += interval
		}
	}
	return out, nil
}

// solveW solves the steady-state w system (eq. 8) as a tridiagonal balance:
//
//	0 = a·((i−1)w_{i−1} − i·w_i)/e + γ((i+1)w_{i+1} − i·w_i) + δ_{is}·λ/s
//
// for i = 1..W with w_{W+1} = 0, where a = (1−z̃_0)μ.
func solveW(p Params, z0, e float64) []float64 {
	a := (1 - z0) * p.Mu / e
	n := p.W
	lower := make([]float64, n+1) // coefficient of w_{i−1} in row i
	diag := make([]float64, n+1)
	upper := make([]float64, n+1) // coefficient of w_{i+1}
	rhs := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		fi := float64(i)
		lower[i] = a * (fi - 1)
		diag[i] = -(a*fi + p.Gamma*fi)
		if i < n {
			upper[i] = p.Gamma * (fi + 1)
		}
		if i == p.S {
			rhs[i] = -p.Lambda / float64(p.S)
		}
	}
	w := thomas(lower[1:], diag[1:], upper[1:], rhs[1:])
	out := make([]float64, n+1)
	copy(out[1:], w)
	return out
}

// solveM solves the steady-state collection matrix (eq. 12) column by
// column: given m^{j−1}, the j-th column is tridiagonal in the degree index.
func solveM(p Params, z0, e float64) [][]float64 {
	a := (1 - z0) * p.Mu / e
	cOverE := p.C / e
	n := p.W
	s := p.S
	m := zeroMatrix(n, s)
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	for j := 0; j <= s; j++ {
		for i := 1; i <= n; i++ {
			fi := float64(i)
			k := i - 1
			lower[k] = a * (fi - 1)
			diag[k] = -(a*fi + p.Gamma*fi)
			if j < s {
				// Pulls advance state-j segments to state j+1, an extra
				// outflow; state-s segments take no more useful pulls.
				diag[k] -= cOverE * fi
			}
			if i < n {
				upper[k] = p.Gamma * (fi + 1)
			} else {
				upper[k] = 0
			}
			rhs[k] = 0
			if j == 0 && i == s {
				rhs[k] = -p.Lambda / float64(s)
			}
			if j > 0 {
				rhs[k] -= cOverE * fi * m[i][j-1]
			}
		}
		col := thomas(lower, diag, upper, rhs)
		for i := 1; i <= n; i++ {
			m[i][j] = col[i-1]
		}
	}
	return m
}

// thomas solves a tridiagonal system in place of copies: row k has
// lower[k]·x_{k−1} + diag[k]·x_k + upper[k]·x_{k+1} = rhs[k].
func thomas(lower, diag, upper, rhs []float64) []float64 {
	n := len(diag)
	cp := make([]float64, n)
	dp := make([]float64, n)
	cp[0] = upper[0] / diag[0]
	dp[0] = rhs[0] / diag[0]
	for k := 1; k < n; k++ {
		denom := diag[k] - lower[k]*cp[k-1]
		if k < n-1 {
			cp[k] = upper[k] / denom
		}
		dp[k] = (rhs[k] - lower[k]*dp[k-1]) / denom
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for k := n - 2; k >= 0; k-- {
		x[k] = dp[k] - cp[k]*x[k+1]
	}
	return x
}

func zeroMatrix(w, s int) [][]float64 {
	m := make([][]float64, w+1)
	for i := range m {
		m[i] = make([]float64, s+1)
	}
	return m
}

func axpy(dst, x, dx []float64, h float64) {
	for i := range dst {
		dst[i] = x[i] + h*dx[i]
	}
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
