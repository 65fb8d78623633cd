package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop stored")
	}
	if got := g.NumEdges(); got != 1 {
		t.Errorf("NumEdges = %d, want 1", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.RemoveEdge(1, 0)
	if g.HasEdge(0, 1) {
		t.Error("edge survived removal")
	}
	g.RemoveEdge(0, 2) // absent edge: no-op
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
	if g.Degree(2) != 3 {
		t.Errorf("Degree(2) = %d, want 3", g.Degree(2))
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges = %v", edges)
	}
	if edges[0] != (Edge{0, 2}) || edges[1] != (Edge{1, 3}) {
		t.Errorf("Edges = %v, want [{0 2} {1 3}]", edges)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(5)
	if got, want := g.NumEdges(), 10; got != want {
		t.Errorf("K5 edges = %d, want %d", got, want)
	}
	if g.Diameter() != 1 {
		t.Errorf("K5 diameter = %d, want 1", g.Diameter())
	}
	if g.AverageDegree() != 4 {
		t.Errorf("K5 avg degree = %v, want 4", g.AverageDegree())
	}
}

func TestRingGraph(t *testing.T) {
	g := Ring(6)
	if got := g.NumEdges(); got != 6 {
		t.Errorf("C6 edges = %d, want 6", got)
	}
	if got := g.Diameter(); got != 3 {
		t.Errorf("C6 diameter = %d, want 3", got)
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("C6 degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestStarGraph(t *testing.T) {
	g := Star(7)
	if g.Degree(0) != 6 {
		t.Errorf("star hub degree = %d, want 6", g.Degree(0))
	}
	if g.Diameter() != 2 {
		t.Errorf("star diameter = %d, want 2", g.Diameter())
	}
}

func TestHopCounts(t *testing.T) {
	// Path 0-1-2-3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := g.HopCountsFrom(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist 0->%d = %d, want %d", i, d[i], want[i])
		}
	}
	hops := g.AllPairsHops()
	if hops[3][0] != 3 || hops[1][2] != 1 {
		t.Errorf("AllPairsHops wrong: %v", hops)
	}
}

func TestHopCountsUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := g.HopCountsFrom(0)
	if d[2] != -1 {
		t.Errorf("unreachable vertex distance = %d, want -1", d[2])
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Errorf("disconnected diameter = %d, want -1", g.Diameter())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Ring(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("Clone shares adjacency storage")
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	for _, n := range []int{2, 10, 60, 100} {
		for _, deg := range []float64{2, 3, 6} {
			rng := rand.New(rand.NewSource(int64(n*100) + int64(deg)))
			g := RandomConnected(n, deg, rng)
			if g.N() != n {
				t.Fatalf("n=%d: N() = %d", n, g.N())
			}
			if !g.IsConnected() {
				t.Errorf("n=%d deg=%v: graph disconnected", n, deg)
			}
			want := math.Min(deg, float64(n-1))
			if n > 10 && math.Abs(g.AverageDegree()-want) > 1.0 {
				t.Errorf("n=%d deg=%v: average degree %v too far from target", n, deg, g.AverageDegree())
			}
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	g1 := RandomConnected(30, 3, rand.New(rand.NewSource(42)))
	g2 := RandomConnected(30, 3, rand.New(rand.NewSource(42)))
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("same seed produced different graphs at edge %d", i)
		}
	}
}

func TestRandomConnectedDegreeCapped(t *testing.T) {
	g := RandomConnected(5, 100, rand.New(rand.NewSource(1)))
	if got := g.NumEdges(); got != 10 {
		t.Errorf("overspecified degree should give K5 (10 edges), got %d", got)
	}
}

func TestRandomConnectedEmptyAndTiny(t *testing.T) {
	if g := RandomConnected(0, 3, rand.New(rand.NewSource(1))); g.N() != 0 {
		t.Error("n=0 not empty")
	}
	if g := RandomConnected(1, 3, rand.New(rand.NewSource(1))); g.N() != 1 || g.NumEdges() != 0 {
		t.Error("n=1 should have a single isolated vertex")
	}
}

// Property: random connected graphs are always connected and every edge is
// symmetric.
func TestRandomConnectedQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, degRaw uint8) bool {
		n := 2 + int(nRaw)%50
		deg := 2 + float64(degRaw%5)
		g := RandomConnected(n, deg, rand.New(rand.NewSource(seed)))
		if !g.IsConnected() {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.V, e.U) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVertexRangePanic(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range vertex did not panic")
		}
	}()
	g.AddEdge(0, 2)
}
