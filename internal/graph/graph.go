// Package graph models the edge-server topology SNAP runs on: an undirected
// graph in which vertices are edge servers and an edge means two servers are
// neighbors (one-hop peers that exchange parameters directly).
//
// It provides deterministic random-topology generation (for the paper's
// large-scale simulations), classic named topologies (for tests and the
// testbed setup), and BFS all-pairs hop counts (used to price parameter-
// server traffic, whose cost is hops x bytes).
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is an undirected simple graph over vertices 0..N-1.
type Graph struct {
	n   int
	adj []map[int]bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are ignored. It panics if u or v is out of range.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// AddVertex appends a new isolated vertex and returns its index (the new
// N−1). Membership churn uses it when an edge server joins the cluster.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, make(map[int]bool))
	g.n++
	return g.n - 1
}

// RemoveVertex deletes vertex v along with every incident edge and
// renumbers vertices above v down by one, keeping the vertex set dense
// (0..N−2). Callers tracking external identities must shift their own
// mappings the same way. It panics if v is out of range.
func (g *Graph) RemoveVertex(v int) {
	g.checkVertex(v)
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	g.adj = append(g.adj[:v], g.adj[v+1:]...)
	g.n--
	for i, m := range g.adj {
		shifted := make(map[int]bool, len(m))
		for u := range m {
			if u > v {
				u--
			}
			shifted[u] = true
		}
		g.adj[i] = shifted
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adj[u][v]
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// Neighbors returns the sorted neighbor set of v.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	return total / 2
}

// AverageDegree returns 2*|E|/|V|, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.n)
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// Edges returns all edges sorted by (U, V), each with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			out.adj[u][v] = true
		}
	}
	return out
}

// IsConnected reports whether every vertex is reachable from vertex 0.
// The empty graph is connected.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// HopCountsFrom returns the BFS hop distance from src to every vertex.
// Unreachable vertices get -1.
func (g *Graph) HopCountsFrom(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// AllPairsHops returns the matrix of BFS hop counts; entry [i][j] is -1 when
// j is unreachable from i.
func (g *Graph) AllPairsHops() [][]int {
	out := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.HopCountsFrom(i)
	}
	return out
}

// Diameter returns the longest shortest-path length in a connected graph,
// or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	best := 0
	for i := 0; i < g.n; i++ {
		for _, d := range g.HopCountsFrom(i) {
			if d < 0 {
				return -1
			}
			if d > best {
				best = d
			}
		}
	}
	return best
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Ring returns the cycle C_n (a path for n=2, a single vertex for n=1).
func Ring(n int) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Star returns the star graph with vertex 0 as the hub.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// RandomConnected generates a random connected graph on n vertices whose
// average degree approximates avgDegree, deterministically from rng.
//
// Construction: a random spanning tree (uniform attachment) guarantees
// connectivity, then random extra edges are added until the edge count
// reaches round(n*avgDegree/2). avgDegree below the tree's average
// (2-2/n) yields just the spanning tree; avgDegree above n-1 yields the
// complete graph.
func RandomConnected(n int, avgDegree float64, rng *rand.Rand) *Graph {
	if n <= 0 {
		return New(0)
	}
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each new vertex to a uniformly random earlier vertex:
		// a random spanning tree.
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	target := int(float64(n)*avgDegree/2 + 0.5)
	maxEdges := n * (n - 1) / 2
	if target > maxEdges {
		target = maxEdges
	}
	for g.NumEdges() < target {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}
