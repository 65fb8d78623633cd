// Package snap is a communication-efficient decentralized machine-learning
// framework for edge computing, reproducing "SNAP: A Communication
// Efficient Distributed Machine Learning Framework for Edge Computing"
// (Zhao et al., ICDCS 2020).
//
// Every edge server holds a full model copy, trains on its local data, and
// each round exchanges *selected* parameters with its topology neighbors
// only — no parameter server. Three mechanisms make this cheap and exact:
//
//   - the EXTRA consensus iteration, which provably reaches the same
//     optimum as centralized training on the pooled data;
//   - spectral optimization of the mixing weight matrix over the network
//     topology, which speeds convergence;
//   - Accumulated-Parameter-Error (APE) thresholding, which withholds
//     parameters whose change since they were last sent is too small to
//     matter, with a certified bound on the resulting error.
//
// # Quick start
//
//	topo := snap.RandomTopology(8, 3, 1)
//	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 8000}, rand.New(rand.NewSource(2)))
//	train, test := data.Split(0.85, rand.New(rand.NewSource(3)))
//	parts, _ := train.Partition(8, rand.New(rand.NewSource(4)))
//	res, err := snap.Train(snap.Config{
//		Topology:   topo,
//		Model:      snap.NewLinearSVM(24),
//		Partitions: parts,
//		Test:       test,
//		Alpha:      0.1,
//	})
//
// The package also exposes the paper's baselines (Centralized, PS and
// TernGrad through TrainCentralized and TrainPS; classic DGD through
// Config.DGD) for comparison, a real TCP peer mode for
// multi-process deployments, and the full experiment harness that
// regenerates every figure of the paper's evaluation (see cmd/snapsim).
package snap

import (
	"math/rand"

	"github.com/snapml/snap/internal/baseline"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// Re-exported fundamental types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Model is a differentiable learner over a flat parameter vector.
	Model = model.Model
	// Dataset is an in-memory labeled sample collection.
	Dataset = dataset.Dataset
	// Sample is one labeled example.
	Sample = dataset.Sample
	// CreditConfig parameterizes the synthetic credit-default generator.
	CreditConfig = dataset.CreditConfig
	// DigitsConfig parameterizes the synthetic MNIST-like generator.
	DigitsConfig = dataset.DigitsConfig
	// Topology is the edge-server neighbor graph.
	Topology = graph.Graph
	// Result summarizes a training run.
	Result = core.Result
	// SendPolicy selects SNAP / SNAP-0 / SNO transmission.
	SendPolicy = core.SendPolicy
	// APEConfig tunes the Algorithm-1 threshold schedule.
	APEConfig = core.APEConfig
	// ConvergenceDetector is the stopping rule for training runs.
	ConvergenceDetector = metrics.ConvergenceDetector
	// Trace is a per-iteration training history.
	Trace = metrics.Trace
	// IterationStat is one row of a Trace.
	IterationStat = metrics.IterationStat
	// WeightOptions tunes the weight-matrix optimizer.
	WeightOptions = weights.Options
	// Vector is a flat parameter vector (model parameters, gradients).
	Vector = linalg.Vector
)

// Transmission policies (paper §V terminology).
const (
	// SNAP withholds parameters below the APE threshold (the full scheme).
	SNAP = core.SendSelected
	// SNAP0 sends every changed parameter (zero APE threshold).
	SNAP0 = core.SendChanged
	// SNO sends the full parameter vector every round
	// (select-neighbors-only).
	SNO = core.SendAll
)

// Model constructors.
var (
	// NewLinearSVM returns the paper's d-parameter squared-hinge SVM.
	NewLinearSVM = model.NewLinearSVM
	// NewMLP returns the paper's 3-layer perceptron (784-30-10 testbed
	// model when called as NewMLP(784, 30, 10)).
	NewMLP = model.NewMLP
	// Accuracy evaluates a model's accuracy over a dataset.
	Accuracy = model.Accuracy
)

// Synthetic dataset generators (offline stand-ins for MNIST and the UCI
// credit-default corpus; see DESIGN.md §2).
var (
	SyntheticCredit = dataset.SyntheticCredit
	SyntheticDigits = dataset.SyntheticDigits
)

// Checkpointing: persist and reload a converged model's flat parameter
// vector (versioned, CRC-protected binary format).
var (
	SaveParams = model.SaveParams
	LoadParams = model.LoadParams
)

// RandomTopology generates a connected random edge-server graph with the
// target average node degree, deterministically from seed.
func RandomTopology(n int, avgDegree float64, seed int64) *Topology {
	return graph.RandomConnected(n, avgDegree, rand.New(rand.NewSource(seed)))
}

// CompleteTopology returns the fully connected n-server graph (the
// paper's 3-server testbed uses CompleteTopology(3)).
func CompleteTopology(n int) *Topology { return graph.Complete(n) }

// RingTopology returns the n-server ring.
func RingTopology(n int) *Topology { return graph.Ring(n) }

// SmallWorldTopology returns a connected Watts-Strogatz small-world graph
// (k nearest lattice neighbors, rewiring probability beta) — the
// high-clustering, short-diameter regime typical of real edge
// deployments.
func SmallWorldTopology(n, k int, beta float64, seed int64) *Topology {
	return graph.SmallWorld(n, k, beta, rand.New(rand.NewSource(seed)))
}

// ScaleFreeTopology returns a connected Barabási-Albert
// preferential-attachment graph (m edges per new vertex): a few highly
// connected aggregation servers and many leaves.
func ScaleFreeTopology(n, m int, seed int64) *Topology {
	return graph.ScaleFree(n, m, rand.New(rand.NewSource(seed)))
}

// Config configures a decentralized SNAP training run over a simulated
// network. The zero values of optional fields select paper defaults; set
// DGD with Policy SNO for classic decentralized gradient descent, the
// inexact peer-to-peer baseline EXTRA (and therefore SNAP) improves on.
// Weights and OnIteration take internal types, so only callers inside
// this module can set them.
type Config = core.ClusterConfig

// Train runs decentralized SNAP training over a simulated network and
// returns the result.
func Train(cfg Config) (*Result, error) {
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return cluster.Run()
}

// BaselineConfig configures the paper's comparison schemes: Topology is
// required by PS and TernGrad (set Ternary) and ignored by Centralized.
type BaselineConfig = baseline.Config

// Baseline runs.
var (
	// TrainCentralized runs the pooled-data yardstick baseline.
	TrainCentralized = baseline.RunCentralized
	// TrainPS runs the parameter-server baseline over cfg.Topology, or
	// TernGrad (2-bit ternary worker→server gradients) when cfg.Ternary.
	TrainPS = baseline.RunPS
)
