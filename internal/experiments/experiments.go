// Package experiments reproduces every figure of the paper's evaluation
// (Section V): the parameter-evolution study (Fig. 2), the testbed
// experiment (Fig. 4), the weight-matrix-optimization study (Fig. 5), the
// convergence/accuracy/cost scaling simulations (Figs. 6-8) and the
// straggler study (Fig. 9).
//
// Each FigN function builds the paper's workload, runs every scheme the
// figure compares, and returns the series as metrics.Tables — the same
// rows the paper plots. Options.Quick shrinks workloads and sweep grids
// for benchmarks and CI; the full grids match the paper's axes.
package experiments

import (
	"fmt"

	"github.com/snapml/snap/internal/baseline"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"math/rand"
	"sync"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// Experiment hyperparameters, calibrated once for the synthetic workloads
// (see EXPERIMENTS.md for the calibration notes).
const (
	// svmAlpha is the EXTRA/GD step size for the credit-SVM simulations.
	svmAlpha = 0.1
	// mlpAlpha is the step size for the digits-MLP testbed experiments.
	mlpAlpha = 0.5
	// svmTernBatch and mlpTernBatch are TernGrad's per-worker minibatch
	// sizes (TernGrad is an SGD method; its characteristic noise needs
	// small batches — see internal/baseline).
	svmTernBatch = 2
	mlpTernBatch = 8
	// weightOptIterations and weightOptStep tune the spectral optimizer
	// inside sweeps (calibrated: at 60 nodes/degree 3 they improve the
	// Metropolis spectral gap by ~30-50%).
	weightOptIterations = 300
	weightOptStep       = 3.0
)

// Options tunes workload sizes.
type Options struct {
	// Quick shrinks datasets and sweep grids (used by benchmarks/CI).
	Quick bool
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
}

// FigResult is one reproduced figure: its tables (one per sub-plot) plus
// free-form notes about deviations or measurement details.
type FigResult struct {
	ID     string
	Tables []*metrics.Table
	Notes  []string
}

// Render formats all tables for terminal output.
func (f *FigResult) Render() string {
	out := ""
	for _, t := range f.Tables {
		out += t.Render() + "\n"
	}
	for _, n := range f.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// detector is the shared stopping rule for "iterations to converge"
// measurements: aggregate loss stable within 0.1% for 3 rounds and
// consensus disagreement below 0.002 (the converged SVM weights are of
// order 0.5, so this demands ~0.4% cross-node agreement). The consensus
// tolerance is what makes the topology matter: with a loose tolerance
// the loss descent dominates and neither the weight matrix nor the
// network scale affects the iteration count.
func detector() metrics.ConvergenceDetector {
	return metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.002}
}

// psDetector is the stopping rule for centralized/PS-style runs, which
// have no consensus dimension.
func psDetector() metrics.ConvergenceDetector {
	return metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3}
}

// svmWorkload is the credit-SVM simulation setup shared by Figs. 5-9.
type svmWorkload struct {
	model model.Model
	parts []*dataset.Dataset
	test  *dataset.Dataset
}

// buildSVM creates the credit dataset (30,000 samples in full mode,
// matching the UCI corpus) and randomly distributes the training split
// across n servers.
func buildSVM(n int, opt Options) (*svmWorkload, error) {
	total := 30000
	if opt.Quick {
		total = 6000
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1000))
	ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: total}, rng)
	train, test := ds.Split(0.85, rng)
	parts, err := train.Partition(n, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: partitioning credit data: %w", err)
	}
	return &svmWorkload{model: model.NewLinearSVM(ds.NumFeature), parts: parts, test: test}, nil
}

// digitsWorkload is the MLP testbed setup (Figs. 2 and 4).
type digitsWorkload struct {
	model model.Model
	parts []*dataset.Dataset
	test  *dataset.Dataset
}

// buildDigits creates the MNIST-like digit task and splits it across n
// servers. Full mode uses the paper's 784-30-10 network.
func buildDigits(n int, opt Options) (*digitsWorkload, error) {
	cfg := dataset.DigitsConfig{Train: 1500, Test: 400, Noise: 0.4, Shift: 3}
	if opt.Quick {
		cfg.Train, cfg.Test = 600, 200
	}
	rng := rand.New(rand.NewSource(opt.Seed + 2000))
	train, test := dataset.SyntheticDigits(cfg, rng)
	parts, err := train.Partition(n, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: partitioning digits: %w", err)
	}
	return &digitsWorkload{
		model: model.NewMLP(train.NumFeature, 30, 10),
		parts: parts,
		test:  test,
	}, nil
}

// maxIterations is the per-run round cap.
func maxIterations(opt Options) int {
	if opt.Quick {
		return 300
	}
	return 400
}

// weightCache memoizes OptimizeBest per topology so the schemes sharing a
// sweep point do not re-run the spectral optimizer.
var weightCache sync.Map // *graph.Graph → *linalg.Matrix

// optimizedWeightsFor returns the OptimizeBest matrix for topo under the
// rate bound at α = svmAlpha, the step size of every run that asks for
// one. The cache is keyed by topology alone, which is sound only because
// α is fixed here rather than taken from the caller.
func optimizedWeightsFor(topo *graph.Graph) (*linalg.Matrix, error) {
	if w, ok := weightCache.Load(topo); ok {
		return w.(*linalg.Matrix), nil
	}
	res, err := weights.OptimizeBest(topo, weights.BoundParams{Alpha: svmAlpha},
		weights.Options{Iterations: weightOptIterations, Step: weightOptStep})
	if err != nil {
		return nil, err
	}
	weightCache.Store(topo, res.W)
	return res.W, nil
}

// schemeRun executes one named scheme on the SVM workload over topo and
// returns its result. Recognized schemes: "snap", "snap-0", "sno", "ps",
// "terngrad", "centralized". optimizeWeights applies to the decentralized
// schemes only.
//
// Straggler runs (failureRate > 0) are scored with a looser consensus
// tolerance: ongoing link failures keep the instantaneous disagreement
// bouncing at the staleness level even though the shared solution has
// converged, and the paper's convergence criterion is unspecified.
func schemeRun(scheme string, topo *graph.Graph, w *svmWorkload, opt Options, optimizeWeights bool, failureRate float64) (*core.Result, error) {
	det := detector()
	if failureRate > 0 {
		det.ConsensusTol = 0.02
	}
	switch scheme {
	case "snap", "snap-0", "sno":
		policy := core.SendSelected
		switch scheme {
		case "snap-0":
			policy = core.SendChanged
		case "sno":
			policy = core.SendAll
		}
		var wm *linalg.Matrix
		if optimizeWeights {
			var err error
			if wm, err = optimizedWeightsFor(topo); err != nil {
				return nil, err
			}
		}
		cluster, err := core.NewCluster(core.ClusterConfig{
			Topology:      topo,
			Model:         w.model,
			Partitions:    w.parts,
			Test:          w.test,
			Alpha:         svmAlpha,
			Policy:        policy,
			Weights:       wm,
			MaxIterations: maxIterations(opt),
			Convergence:   det,
			EvalEvery:     100,
			Seed:          opt.Seed,
			// Simulated edge servers initialize independently; the
			// resulting initial disagreement is what makes the network
			// topology a genuine factor (Figs. 5, 6b, 8b).
			PerNodeInit: true,
			FailureRate: failureRate,
		})
		if err != nil {
			return nil, err
		}
		return cluster.Run()
	case "ps", "terngrad":
		cfg := baseline.Config{
			Topology:      topo,
			Model:         w.model,
			Partitions:    w.parts,
			Test:          w.test,
			Alpha:         svmAlpha,
			MaxIterations: maxIterations(opt),
			Convergence:   psDetector(),
			EvalEvery:     100,
			Seed:          opt.Seed,
		}
		if scheme == "terngrad" {
			cfg.Ternary = true
			cfg.BatchSize = svmTernBatch
		}
		return baseline.RunPS(cfg)
	case "centralized":
		return baseline.RunCentralized(baseline.Config{
			Model:         w.model,
			Partitions:    w.parts,
			Test:          w.test,
			Alpha:         svmAlpha,
			MaxIterations: maxIterations(opt),
			Convergence:   psDetector(),
			Seed:          opt.Seed,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
}

// scalePoints returns the network sizes the scaling figures sweep.
func scalePoints(opt Options) []int {
	if opt.Quick {
		return []int{20, 60}
	}
	return []int{20, 40, 60, 80, 100}
}

// sparseDegrees returns the average-node-degree sweep for sparse networks.
func sparseDegrees(opt Options) []float64 {
	if opt.Quick {
		return []float64{2, 4, 6}
	}
	return []float64{2, 3, 4, 5, 6}
}

// denseDegrees returns the degree sweep for densely connected networks.
func denseDegrees(opt Options) []float64 {
	if opt.Quick {
		return []float64{10, 30, 50}
	}
	return []float64{10, 20, 30, 40, 50}
}

// failureRates returns the unavailable-link percentages of Fig. 9.
func failureRates(opt Options) []float64 {
	if opt.Quick {
		return []float64{0, 0.02, 0.05}
	}
	return []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
}

// topoCache memoizes topologyFor so every figure sweeping the same point
// gets the *same* graph object — which also makes the weight-matrix cache
// hit across figures.
var topoCache sync.Map // topoKey → *graph.Graph

type topoKey struct {
	n    int
	deg  float64
	seed int64
}

// topologyFor builds the random topology for a sweep point,
// deterministically from the experiment seed.
func topologyFor(n int, avgDegree float64, opt Options) *graph.Graph {
	key := topoKey{n: n, deg: avgDegree, seed: opt.Seed}
	if g, ok := topoCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	g := graph.RandomConnected(n, avgDegree, rand.New(rand.NewSource(opt.Seed+int64(n)*7919+int64(avgDegree*13))))
	topoCache.Store(key, g)
	return g
}

// floatsOf converts ints for table axes.
func floatsOf(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// mustAdd panics on series-length mismatch — a programmer error in the
// harness, not a data condition.
func mustAdd(t *metrics.Table, name string, points []float64) {
	if err := t.AddSeries(name, points); err != nil {
		panic(err)
	}
}
