package topology

import (
	"testing"
	"testing/quick"

	"p2pcollect/internal/randx"
)

func TestAddRemoveEdge(t *testing.T) {
	g := NewGraph(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false")
	}
	if g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Error("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop accepted")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
	if !g.RemoveEdge(1, 0) {
		t.Error("RemoveEdge failed")
	}
	if g.RemoveEdge(1, 0) {
		t.Error("RemoveEdge on absent edge succeeded")
	}
	if g.HasEdge(0, 1) {
		t.Error("edge survives removal")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	nbrs := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
}

func TestRandomKNeighborDegrees(t *testing.T) {
	rng := randx.New(1)
	g, err := RandomKNeighbor(200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		if g.Degree(i) < 4 {
			t.Fatalf("node %d degree %d < k", i, g.Degree(i))
		}
	}
	if !g.Connected() {
		t.Error("k=4 overlay on 200 nodes disconnected (astronomically unlikely)")
	}
}

func TestRandomKNeighborInfeasible(t *testing.T) {
	rng := randx.New(2)
	if _, err := RandomKNeighbor(3, 5, rng); err == nil {
		t.Error("k > n-1 accepted")
	}
	if _, err := RandomKNeighbor(10, 0, rng); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestReplaceNode(t *testing.T) {
	rng := randx.New(5)
	g := NewGraph(10)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			g.AddEdge(u, v)
		}
	}
	g.ReplaceNode(3, 4, rng)
	if g.Degree(3) != 4 {
		t.Errorf("replaced node degree = %d, want 4", g.Degree(3))
	}
	// Symmetry must hold after replacement.
	for _, v := range g.Neighbors(3) {
		if !g.HasEdge(v, 3) {
			t.Errorf("asymmetric edge after replacement: %d", v)
		}
	}
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if g.HasEdge(i, 3) != g.HasEdge(3, i) {
			t.Errorf("asymmetry between %d and 3", i)
		}
	}
}

func TestConnectedSmall(t *testing.T) {
	if !NewGraph(0).Connected() || !NewGraph(1).Connected() {
		t.Error("trivial graphs reported disconnected")
	}
	g := NewGraph(2)
	if g.Connected() {
		t.Error("two isolated nodes reported connected")
	}
	g.AddEdge(0, 1)
	if !g.Connected() {
		t.Error("single edge graph reported disconnected")
	}
}

func TestGraphInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := randx.New(seed)
		const n = 12
		g := NewGraph(n)
		for _, op := range ops {
			u, v := int(op)%n, int(op>>4)%n
			switch op % 3 {
			case 0:
				g.AddEdge(u, v)
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.ReplaceNode(u, 3, rng)
			}
			// Symmetry and degree-sum invariants.
			sum := 0
			for i := 0; i < n; i++ {
				sum += g.Degree(i)
				for _, w := range g.Neighbors(i) {
					if !g.HasEdge(w, i) || w == i {
						return false
					}
				}
			}
			if sum != 2*g.Edges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
