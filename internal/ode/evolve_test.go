package ode

import (
	"math"
	"testing"
)

func TestEvolveFullValidation(t *testing.T) {
	p := defaultParams()
	if _, err := EvolveFull(p, 0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := EvolveFull(p, 10, -1); err == nil {
		t.Error("negative interval accepted")
	}
	bad := p
	bad.Gamma = 0
	if _, err := EvolveFull(bad, 10, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestEvolveFullConvergesToSteadyState(t *testing.T) {
	p := defaultParams() // λ=8, μ=6, γ=1, c=3, s=4
	traj, err := EvolveFull(p, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := traj[len(traj)-1]
	ss, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(last.E-ss.E) / ss.E; rel > 1e-3 {
		t.Errorf("E: trajectory %v vs steady %v", last.E, ss.E)
	}
	if rel := math.Abs(last.SumW-ss.SumW()) / ss.SumW(); rel > 1e-3 {
		t.Errorf("SumW: trajectory %v vs steady %v", last.SumW, ss.SumW())
	}
	if diff := math.Abs(last.SumMs - ss.SumMs()); diff > 1e-3*(1+ss.SumMs()) {
		t.Errorf("SumMs: trajectory %v vs steady %v", last.SumMs, ss.SumMs())
	}
	steadyEta := 1 - ss.EdgeWeightedMs()/ss.E
	if diff := math.Abs(last.Eta - steadyEta); diff > 1e-3 {
		t.Errorf("Eta: trajectory %v vs steady %v", last.Eta, steadyEta)
	}
	var steadySaved float64
	for i := p.S; i < len(ss.W); i++ {
		steadySaved += ss.W[i] - ss.M[i][p.S]
	}
	steadySaved *= float64(p.S)
	if diff := math.Abs(last.SavedPerPeer - steadySaved); diff > 1e-2*(1+steadySaved) {
		t.Errorf("Saved: trajectory %v vs steady %v", last.SavedPerPeer, steadySaved)
	}
}

func TestEvolveFullTransientShape(t *testing.T) {
	p := defaultParams()
	traj, err := EvolveFull(p, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traj[0].E != 0 || traj[0].Z0 != 1 || traj[0].Eta != 1 {
		t.Errorf("initial point = %+v", traj[0])
	}
	// Efficiency starts at 1 (nothing collected yet) and decreases toward
	// its equilibrium as good segments accumulate.
	for i := 1; i < len(traj); i++ {
		if traj[i].Eta > 1+1e-9 || traj[i].Eta < -1e-9 {
			t.Fatalf("eta out of range at t=%v: %v", traj[i].T, traj[i].Eta)
		}
	}
	// For these parameters the efficiency dips while the network is still
	// small (pulls concentrate on the few early segments and saturate
	// them), then recovers toward equilibrium as injection fills the pool.
	minEta := 1.0
	for _, pt := range traj {
		minEta = math.Min(minEta, pt.Eta)
	}
	late := traj[len(traj)-1].Eta
	if minEta >= late {
		t.Errorf("no transient efficiency dip: min %v, late %v", minEta, late)
	}
	// Good segments accumulate monotonically at the start.
	if traj[5].SumMs <= traj[1].SumMs {
		t.Errorf("good segments did not accumulate: %v -> %v", traj[1].SumMs, traj[5].SumMs)
	}
}
