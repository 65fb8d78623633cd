package baseline

import (
	"math/rand"

	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
)

// GossipConfig configures randomized pairwise gossip SGD (the
// Boyd-Ghosh-Prabhakar-Shah gossip averaging the paper cites as [22],
// combined with local gradient steps): each round a set of disjoint edges
// activates; the two endpoints of an active edge exchange full parameter
// vectors and average them, then every node takes a local gradient step.
//
// Gossip needs no synchronized all-neighbor rounds — only pairwise
// meetings — which suits intermittently connected edge devices; the price
// is slower information spreading than a full EXTRA round and, like DGD,
// convergence only to a neighborhood of the optimum under a constant
// step.
type GossipConfig struct {
	Topology   *graph.Graph
	Model      model.Model
	Partitions []*dataset.Dataset
	Test       *dataset.Dataset
	Alpha      float64
	// PairsPerRound bounds how many disjoint edges activate each round
	// (default: N/2, a maximal matching's worth).
	PairsPerRound int
	MaxIterations int
	Convergence   metrics.ConvergenceDetector
	Seed          int64
	EvalEvery     int
}

// RunGossip executes randomized pairwise gossip SGD over the simulated
// network, charging each meeting two full-vector transfers (one each way)
// across one hop.
func RunGossip(cfg GossipConfig) (*core.Result, error) {
	p := problem{
		scheme: "gossip", topology: cfg.Topology, model: cfg.Model, partitions: cfg.Partitions, test: cfg.Test,
		alpha: cfg.Alpha, maxIterations: cfg.MaxIterations, evalEvery: cfg.EvalEvery, convergence: cfg.Convergence,
	}
	if err := p.check(true); err != nil {
		return nil, err
	}
	n := cfg.Topology.N()
	if cfg.PairsPerRound <= 0 {
		cfg.PairsPerRound = max(1, n/2)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := cloneAll(cfg.Model.InitParams(cfg.Seed), n)
	edges := cfg.Topology.Edges()
	frame := make([]byte, 8*cfg.Model.NumParams())

	return p.run(x, func(int) error {
		// Activate up to PairsPerRound disjoint random edges.
		busy := make([]bool, n)
		perm := rng.Perm(len(edges))
		activated := 0
		for _, idx := range perm {
			if activated >= cfg.PairsPerRound {
				break
			}
			e := edges[idx]
			if busy[e.U] || busy[e.V] {
				continue
			}
			busy[e.U], busy[e.V] = true, true
			activated++
			// Two full-vector transfers, one each way.
			if err := p.net.Send(e.U, e.V, frame); err != nil {
				return err
			}
			if err := p.net.Send(e.V, e.U, frame); err != nil {
				return err
			}
			mean := x[e.U].Add(x[e.V]).Scale(0.5)
			copy(x[e.U], mean)
			copy(x[e.V], mean)
		}

		// Local SGD step everywhere.
		for i := 0; i < n; i++ {
			grad := cfg.Model.Gradient(x[i], cfg.Partitions[i].Samples)
			x[i].AXPYInPlace(-cfg.Alpha, grad)
		}
		return nil
	})
}
