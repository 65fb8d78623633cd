package baseline

import (
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// DGDConfig configures classic decentralized gradient descent
// (Nedić-Ozdaglar): x_i ← Σ_j w_ij·x_j − α·∇f_i(x_i).
//
// DGD is the natural first thing to try for peer-to-peer learning, and
// it is exactly what EXTRA (and therefore SNAP) improves on: with a
// constant step size DGD converges only to an O(α)-neighborhood of the
// optimum — each node's local gradient keeps pushing it away from the
// consensus point — whereas EXTRA's correction term cancels that bias and
// reaches the exact optimum. This implementation exists to demonstrate
// that gap (see BenchmarkAblationDGDvsEXTRA).
type DGDConfig struct {
	Topology      *graph.Graph
	Model         model.Model
	Partitions    []*dataset.Dataset
	Test          *dataset.Dataset
	Alpha         float64
	MaxIterations int
	Convergence   metrics.ConvergenceDetector
	Seed          int64
	// EvalEvery computes test accuracy every this many rounds (default 1).
	EvalEvery int
}

// RunDGD executes decentralized gradient descent with Metropolis mixing
// weights over the simulated network, sending full parameter vectors to
// neighbors every round (DGD has no selective-transmission story — every
// node needs fresh neighbor values each step).
func RunDGD(cfg DGDConfig) (*core.Result, error) {
	p := problem{
		scheme: "dgd", topology: cfg.Topology, model: cfg.Model, partitions: cfg.Partitions, test: cfg.Test,
		alpha: cfg.Alpha, maxIterations: cfg.MaxIterations, evalEvery: cfg.EvalEvery, convergence: cfg.Convergence,
	}
	if err := p.check(true); err != nil {
		return nil, err
	}
	n := cfg.Topology.N()
	w := weights.Metropolis(cfg.Topology, 0)
	x := cloneAll(cfg.Model.InitParams(cfg.Seed), n)
	frame := make([]byte, 8*cfg.Model.NumParams()) // full-vector payload, accounted per paper sizes

	return p.run(x, func(int) error {
		// Charge the full-vector neighbor traffic.
		for i := 0; i < n; i++ {
			for _, j := range cfg.Topology.Neighbors(i) {
				if err := p.net.Send(i, j, frame); err != nil {
					return err
				}
			}
		}
		// Synchronous DGD step on exact neighbor values.
		next := make([]linalg.Vector, n)
		for i := 0; i < n; i++ {
			mix := x[i].Scale(w.At(i, i))
			for _, j := range cfg.Topology.Neighbors(i) {
				mix.AXPYInPlace(w.At(i, j), x[j])
			}
			grad := cfg.Model.Gradient(x[i], cfg.Partitions[i].Samples)
			next[i] = mix.AXPYInPlace(-cfg.Alpha, grad)
		}
		copy(x, next)
		return nil
	})
}
