// Package topology builds and maintains the P2P overlay graphs on which the
// gossip protocol runs: random k-neighbor overlays (the shape used by mesh
// streaming systems like the one the paper measures), plus the
// node-replacement operation needed by the churn model. The paper's full
// mesh needs no graph: a simulator without one samples any peer.
//
// Adjacency is stored as sorted slices so that iteration order — and hence
// every simulation run — is deterministic for a fixed seed.
package topology

import (
	"fmt"
	"sort"

	"p2pcollect/internal/randx"
)

// Graph is an undirected overlay on nodes 0..n-1.
type Graph struct {
	adj [][]int
}

// NewGraph returns an edgeless graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{adj: make([][]int, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// Degree returns the number of neighbors of node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Neighbors returns the neighbor list of node i in ascending order. The
// slice aliases internal storage; callers must not modify it.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// HasEdge reports whether nodes u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	return contains(g.adj[u], v)
}

// AddEdge connects u and v. Self-loops and duplicate edges are rejected with
// a false return.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || contains(g.adj[u], v) {
		return false
	}
	g.adj[u] = insert(g.adj[u], v)
	g.adj[v] = insert(g.adj[v], u)
	return true
}

// RemoveEdge disconnects u and v, reporting whether the edge existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !contains(g.adj[u], v) {
		return false
	}
	g.adj[u] = remove(g.adj[u], v)
	g.adj[v] = remove(g.adj[v], u)
	return true
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// ReplaceNode models the churn replacement of [7,8]: node i departs and a
// fresh peer takes its slot. All of i's edges are dropped and the newcomer
// is wired to degree new random neighbors (fewer if the graph is too small).
func (g *Graph) ReplaceNode(i, degree int, rng *randx.Rand) {
	for _, v := range append([]int(nil), g.adj[i]...) {
		g.RemoveEdge(i, v)
	}
	g.wireRandom(i, degree, rng)
}

// wireRandom connects node i to up to degree distinct random nodes.
func (g *Graph) wireRandom(i, degree int, rng *randx.Rand) {
	n := g.Len()
	if degree > n-1 {
		degree = n - 1
	}
	for tries := 0; g.Degree(i) < degree && tries < 50*degree; tries++ {
		g.AddEdge(i, rng.Choose(n, i))
	}
}

// AddNode grows the graph by one node wired to up to degree random
// existing nodes, returning its index. Used when peers join a running
// session (flash crowds of arrivals).
func (g *Graph) AddNode(degree int, rng *randx.Rand) int {
	g.adj = append(g.adj, nil)
	i := len(g.adj) - 1
	g.wireRandom(i, degree, rng)
	return i
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) Connected() bool {
	n := g.Len()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// RandomKNeighbor builds the overlay used by the simulator: every node
// initiates connections to k distinct random partners, so degrees
// concentrate around 2k. This matches the partner lists of mesh-based P2P
// streaming systems. An error is returned when k is infeasible.
func RandomKNeighbor(n, k int, rng *randx.Rand) (*Graph, error) {
	if k < 1 || k > n-1 {
		return nil, fmt.Errorf("topology: k=%d infeasible for n=%d", k, n)
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		added := 0
		for tries := 0; added < k && tries < 100*k; tries++ {
			if g.AddEdge(i, rng.Choose(n, i)) {
				added++
			}
		}
	}
	return g, nil
}

func contains(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

func insert(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func remove(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}
