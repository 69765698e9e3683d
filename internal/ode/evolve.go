package ode

import "errors"

// FullTrajectoryPoint samples the complete transient state of the three
// coupled systems.
type FullTrajectoryPoint struct {
	T float64
	// E and Z0 come from the z system.
	E  float64
	Z0 float64
	// SumW is the live-segment density Σ w_i(t); SumMs the good-segment
	// density Σ m_i^s(t).
	SumW  float64
	SumMs float64
	// Eta is the instantaneous collection efficiency
	// 1 − Σ i·m_i^s(t)/e(t) (1 while the network is empty).
	Eta float64
	// SavedPerPeer is Theorem 4's integrand s·Σ_{i≥s}(w_i − m_i^s) at time
	// t.
	SavedPerPeer float64
}

// fullState packs z, w, and m into one vector for the integrator:
// [ z_0..z_B | w_1..w_W | m_1^0..m_W^0 | m_1^1..m_W^1 | ... | m_1^s..m_W^s ].
type fullState struct {
	p  Params
	nz int // B+1
	nw int // W
}

func (fs fullState) dim() int { return fs.nz + fs.nw + fs.nw*(fs.p.S+1) }

func (fs fullState) z(v []float64) []float64 { return v[:fs.nz] }
func (fs fullState) w(v []float64) []float64 { return v[fs.nz : fs.nz+fs.nw] } // w[i-1] = w_i
func (fs fullState) m(v []float64, j int) []float64 {
	off := fs.nz + fs.nw + j*fs.nw
	return v[off : off+fs.nw] // m[i-1] = m_i^j
}

// deriv evaluates the full right-hand side: eq. (7) for z, eq. (8) for w,
// and eq. (12) for m, with the time-varying couplings e(t) and z_0(t).
func (fs fullState) deriv(v, dv []float64) {
	p := fs.p
	z := fs.z(v)
	zDeriv(p, z, fs.z(dv))
	var e float64
	for i, zi := range z {
		e += float64(i) * zi
	}
	if e < 1e-12 {
		// Empty network: no transfers, no pulls; only injection sources.
		w := fs.w(dv)
		for i := range w {
			w[i] = 0
		}
		for j := 0; j <= p.S; j++ {
			mj := fs.m(dv, j)
			for i := range mj {
				mj[i] = 0
			}
		}
		inj := p.Lambda / float64(p.S)
		w[p.S-1] = inj
		fs.m(dv, 0)[p.S-1] = inj
		return
	}
	a := (1 - z[0]) * p.Mu / e
	cOverE := p.C / e
	inj := p.Lambda / float64(p.S)
	w := fs.w(v)
	dw := fs.w(dv)
	n := fs.nw
	// Segment-degree system, eq. (8).
	for k := 0; k < n; k++ {
		i := float64(k + 1)
		var d float64
		if k > 0 {
			d += a * (i - 1) * w[k-1]
		}
		d -= a * i * w[k]
		if k < n-1 {
			d += p.Gamma * (i + 1) * w[k+1]
		}
		d -= p.Gamma * i * w[k]
		if k+1 == p.S {
			d += inj
		}
		dw[k] = d
	}
	// Collection matrix, eq. (12).
	for j := 0; j <= p.S; j++ {
		mj := fs.m(v, j)
		dmj := fs.m(dv, j)
		var mPrev []float64
		if j > 0 {
			mPrev = fs.m(v, j-1)
		}
		for k := 0; k < n; k++ {
			i := float64(k + 1)
			var d float64
			if k > 0 {
				d += a * (i - 1) * mj[k-1]
			}
			d -= a * i * mj[k]
			if k < n-1 {
				d += p.Gamma * (i + 1) * mj[k+1]
			}
			d -= p.Gamma * i * mj[k]
			if j < p.S {
				d -= cOverE * i * mj[k]
			}
			if j > 0 {
				d += cOverE * i * mPrev[k]
			}
			if j == 0 && k+1 == p.S {
				d += inj
			}
			dmj[k] = d
		}
	}
}

// maxRate bounds the stiffest instantaneous rate for step-size control.
func (fs fullState) maxRate(v []float64) float64 {
	p := fs.p
	z := fs.z(v)
	var e float64
	for i, zi := range z {
		e += float64(i) * zi
	}
	rate := float64(p.B)*p.Gamma + p.Mu + p.Lambda + float64(fs.nw)*p.Gamma
	if e > 1e-12 {
		rate += float64(fs.nw) * ((1-z[0])*p.Mu + p.C) / e
	}
	return rate
}

// EvolveFull integrates the coupled z/w/m systems from the empty network
// over [0, horizon], sampling every interval. The step size adapts to the
// instantaneous stiffness (the c/e(t) pull rate diverges while the network
// is nearly empty). Intended for moderate segment sizes; the state has
// B + W·(s+2) dimensions.
func EvolveFull(p Params, horizon, interval float64) ([]FullTrajectoryPoint, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 || interval <= 0 {
		return nil, errors.New("ode: horizon and interval must be positive")
	}
	fs := fullState{p: p, nz: p.B + 1, nw: p.W}
	dim := fs.dim()
	v := make([]float64, dim)
	v[0] = 1 // z_0 = 1: empty network
	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	tmp := make([]float64, dim)

	var out []FullTrajectoryPoint
	sample := func(t float64) {
		out = append(out, fs.sampleAt(t, v))
	}
	sample(0)
	next := interval
	const dtFloor = 1e-7
	for t := 0.0; t < horizon; {
		dt := 1.0 / fs.maxRate(v)
		if dt < dtFloor {
			dt = dtFloor
		}
		if t+dt > horizon {
			dt = horizon - t
		}
		fs.deriv(v, k1)
		axpy(tmp, v, k1, dt/2)
		fs.deriv(tmp, k2)
		axpy(tmp, v, k2, dt/2)
		fs.deriv(tmp, k3)
		axpy(tmp, v, k3, dt)
		fs.deriv(tmp, k4)
		for i := range v {
			v[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			if v[i] < 0 {
				v[i] = 0
			}
		}
		t += dt
		for next <= t && next <= horizon {
			sample(next)
			next += interval
		}
	}
	return out, nil
}

// sampleAt derives the observable quantities from the raw state.
func (fs fullState) sampleAt(t float64, v []float64) FullTrajectoryPoint {
	p := fs.p
	z := fs.z(v)
	pt := FullTrajectoryPoint{T: t, Z0: z[0], Eta: 1}
	for i, zi := range z {
		pt.E += float64(i) * zi
	}
	w := fs.w(v)
	ms := fs.m(v, p.S)
	var edgeMs, saved float64
	for k := 0; k < fs.nw; k++ {
		pt.SumW += w[k]
		pt.SumMs += ms[k]
		edgeMs += float64(k+1) * ms[k]
		if k+1 >= p.S {
			saved += w[k] - ms[k]
		}
	}
	pt.SavedPerPeer = float64(p.S) * saved
	if pt.E > 1e-12 {
		pt.Eta = 1 - edgeMs/pt.E
		if pt.Eta < 0 {
			pt.Eta = 0
		}
	}
	return pt
}
