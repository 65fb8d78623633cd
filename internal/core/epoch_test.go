package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// TestElasticStaggeredSwitch drives six engines by hand through three
// epoch switches, each applied by every node in its own round (a random
// stagger of 0–3 rounds after the switch is announced):
//
//   - epoch 1 changes every weight of the founding five-node graph;
//   - epoch 2 admits node 5, which starts alone with s = 0 and links to
//     nodes 1 and 3;
//   - epoch 3 removes node 2, which stops at once, as on a crash; each
//     survivor subtracts its flow with node 2 when it applies the epoch.
//
// Frames are encoded and decoded as on the wire and pass between two
// engines only while each lists the other, as the TCP transport does.
// After every round the test asserts that the W in force is symmetric
// with rows summing to 1, that s_i = Σ_j φ_ij, and that Σ_i ⟨s_i, r⟩ = 0
// for a fixed random r. While a survivor still holds an edge to the
// departed node, that edge's flow is a debt it has not yet paid: the
// sum is taken over s_i − φ_i2 until the survivor drops the edge, and
// over s_i from then on. The run must end where a static run on the
// final topology ends.
func TestElasticStaggeredSwitch(t *testing.T) {
	const (
		n       = 6
		rounds  = 7000
		joiner  = 5
		leaver  = 2
		joinEp  = 2
		leaveEp = 3
	)
	_, parts := smallPartitions(t, n, 30, 4)
	m := model.NewLinearSVM(8)
	init := m.InitParams(9)
	rng := rand.New(rand.NewSource(13))
	r := linalg.NewVector(m.NumParams())
	for i := range r {
		r[i] = rng.NormFloat64()
	}

	// Topologies in node-id space; absent nodes are isolated vertices.
	g0 := graph.New(n)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}} {
		g0.AddEdge(e[0], e[1])
	}
	g2 := g0.Clone()
	g2.AddEdge(joiner, 1)
	g2.AddEdge(joiner, 3)
	g3 := g2.Clone()
	for _, j := range g3.Neighbors(leaver) {
		g3.RemoveEdge(leaver, j)
	}
	type epoch struct {
		at   int // announcement round
		topo *graph.Graph
		w    *linalg.Matrix
	}
	epochs := []epoch{
		{0, g0, weights.Metropolis(g0, 0)},
		{40, g0, weights.Metropolis(g0, 1)},
		{90, g2, weights.Metropolis(g2, 0)},
		{140, g3, weights.Metropolis(g3, 0)},
	}
	final := epochs[leaveEp]

	for _, policy := range []SendPolicy{SendAll, SendChanged} {
		// applyAt[e][i]: the round whose boundary node i applies epoch e at.
		applyAt := make([][]int, len(epochs))
		for e := 1; e < len(epochs); e++ {
			applyAt[e] = make([]int, n)
			for i := range applyAt[e] {
				applyAt[e][i] = epochs[e].at + rng.Intn(4)
			}
		}
		applyAt[leaveEp][leaver] = epochs[leaveEp].at // a crash is not staggered

		newEngine := func(id int, row linalg.Vector, nbrs []int) *Engine {
			eng, err := NewEngine(EngineConfig{
				ID: id, Model: m, Data: parts[id], Alpha: 0.1,
				WRow: row, Neighbors: nbrs, Policy: policy, Init: init,
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		engines := make([]*Engine, n) // nil while a node is absent
		for i := 0; i < n; i++ {
			if i != joiner {
				engines[i] = newEngine(i, epochs[0].w.Row(i), g0.Neighbors(i))
			}
		}
		frames := make([][]byte, n)
		var dec codec.Update
		minDiag := math.Inf(1)
		for round := 0; round < rounds; round++ {
			for e := 1; e < len(epochs); e++ {
				for i := 0; i < n; i++ {
					if applyAt[e][i] != round {
						continue
					}
					ep := epochs[e]
					switch {
					case e == joinEp && i == joiner:
						// The joiner starts alone and takes its edges as
						// frames carrying the epoch flow both ways.
						solo := linalg.NewVector(n)
						solo[joiner] = 1
						engines[i] = newEngine(i, solo, nil)
						if err := engines[i].Reconfigure(e, ep.w.Row(i), ep.topo.Neighbors(i)); err != nil {
							t.Fatal(err)
						}
					case e == leaveEp && i == leaver:
						engines[i] = nil
					case engines[i] != nil:
						if err := engines[i].Reconfigure(e, ep.w.Row(i), ep.topo.Neighbors(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			for i, eng := range engines {
				if eng == nil {
					continue
				}
				u, err := eng.BuildUpdate(round)
				if err != nil {
					t.Fatal(err)
				}
				if frames[i], _, err = codec.EncodeTo(frames[i], u); err != nil {
					t.Fatal(err)
				}
			}
			for i, eng := range engines {
				if eng == nil {
					continue
				}
				for _, j := range eng.Neighbors() {
					if engines[j] == nil {
						continue
					}
					if _, linked := engines[j].nbrIdx[i]; !linked {
						continue
					}
					if err := codec.DecodeInto(&dec, frames[j]); err != nil {
						t.Fatal(err)
					}
					if err := eng.IngestFrame(&dec); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, eng := range engines {
				if eng != nil {
					eng.ComputeGradient(round)
					eng.StepMix(round)
				}
			}

			// The W in force: rows sum to 1, and an edge has one weight.
			var sum float64
			for i, eng := range engines {
				if eng == nil {
					continue
				}
				minDiag = math.Min(minDiag, eng.selfW)
				row := eng.selfW
				for k, j := range eng.nbrIDs {
					w := eng.nbrW[k]
					row += w
					if other := engines[j]; other != nil {
						back := 0.0 // no slot is no weight
						if kj, ok := other.nbrIdx[i]; ok {
							back = other.nbrW[kj]
						}
						if back != w {
							t.Fatalf("%v round %d: w_%d%d = %g in force at %d, %g at %d", policy, round, i, j, w, i, back, j)
						}
					}
				}
				if math.Abs(row-1) > 1e-12 {
					t.Fatalf("%v round %d: node %d's in-force row sums to %.17g", policy, round, i, row)
				}
				// s_i = Σ_j φ_ij, to rounding.
				flows := linalg.NewVector(len(eng.s))
				for k := range eng.nbrIDs {
					flows.AddInPlace(eng.phi[k])
				}
				if d := linalg.DistInf(flows, eng.s); d > 1e-12 {
					t.Fatalf("%v round %d: node %d: |s − Σ_j φ_ij|∞ = %g", policy, round, i, d)
				}
				term := eng.s.Dot(r)
				if k, ok := eng.nbrIdx[leaver]; ok && engines[leaver] == nil {
					term -= eng.phi[k].Dot(r)
				}
				sum += term
			}
			if math.Abs(sum) > 1e-12 {
				t.Fatalf("%v round %d: Σ_i ⟨s_i, r⟩ = %g, want 0", policy, round, sum)
			}
		}
		for i, eng := range engines {
			if eng != nil && eng.Restarts() != 0 {
				t.Errorf("%v: node %d restarted EXTRA %d times", policy, i, eng.Restarts())
			}
		}
		t.Logf("%v: smallest diagonal weight in force: %g", policy, minDiag)

		// A static run on the final topology from the shared init.
		static := make([]*Engine, n)
		for i := range static {
			if i != leaver {
				static[i] = newEngine(i, final.w.Row(i), final.topo.Neighbors(i))
			}
		}
		for round := 0; round < rounds; round++ {
			for i, eng := range static {
				if eng == nil {
					continue
				}
				u, err := eng.BuildUpdate(round)
				if err != nil {
					t.Fatal(err)
				}
				if frames[i], _, err = codec.EncodeTo(frames[i], u); err != nil {
					t.Fatal(err)
				}
			}
			for _, eng := range static {
				if eng == nil {
					continue
				}
				for _, j := range eng.Neighbors() {
					if err := codec.DecodeInto(&dec, frames[j]); err != nil {
						t.Fatal(err)
					}
					if err := eng.IngestFrame(&dec); err != nil {
						t.Fatal(err)
					}
				}
				eng.ComputeGradient(round)
			}
			for _, eng := range static {
				if eng != nil {
					eng.StepMix(round)
				}
			}
		}
		for i, eng := range engines {
			if eng == nil {
				continue
			}
			if d := linalg.DistInf(eng.x, static[i].x); d > 1e-9 {
				t.Errorf("%v: node %d ends %g from the static run on the final topology", policy, i, d)
			}
		}
	}
}
