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
// The package also exposes the paper's baselines (Centralized, PS,
// TernGrad) and classic DGD for comparison, a real TCP peer mode for
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

// Config configures a decentralized SNAP training run. The zero values of
// optional fields select paper defaults.
type Config struct {
	// Topology is the neighbor graph (required, connected).
	Topology *Topology
	// Model is the shared architecture (required).
	Model Model
	// Partitions holds each server's local data (required,
	// len == Topology.N()).
	Partitions []*Dataset
	// Test enables accuracy evaluation (optional).
	Test *Dataset
	// Alpha is the EXTRA step size (required, positive).
	Alpha float64
	// Policy selects SNAP (default), SNAP0 or SNO.
	Policy SendPolicy
	// APE tunes Algorithm 1 (optional).
	APE APEConfig
	// OptimizeWeights enables the spectral weight-matrix optimization
	// (paper §IV-B). Default off; the experiment harness turns it on.
	OptimizeWeights bool
	// WeightOpt tunes the optimizer.
	WeightOpt WeightOptions
	// BatchSize limits per-iteration gradients (0 = full batch).
	BatchSize int
	// MaxIterations caps the run (default 500).
	MaxIterations int
	// Convergence sets the stopping rule.
	Convergence ConvergenceDetector
	// EvalEvery sets the accuracy evaluation period (default 1).
	EvalEvery int
	// Seed makes the run reproducible.
	Seed int64
	// PerNodeInit gives every server an independent random initialization
	// (with a full round-0 exchange), as in an uncoordinated deployment.
	// Default: all servers share the Seed-derived initialization.
	PerNodeInit bool
	// Float32Wire transmits parameter values as float32, halving value
	// bytes (an extension beyond the paper; rounding ~1e-7 relative).
	Float32Wire bool
	// FailureRate injects per-round link failures (stragglers). Periodic
	// full refresh and recursion restarts are enabled automatically to
	// keep the iteration exact under loss.
	FailureRate float64
	// Obs, when set, streams live metrics and round events from the
	// simulated cluster: engine series are labeled node="<id>", phase
	// histograms aggregate across nodes. See NewObserver.
	Obs *Observer
}

// Train runs decentralized SNAP training over a simulated network and
// returns the result.
func Train(cfg Config) (*Result, error) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Topology:        cfg.Topology,
		Model:           cfg.Model,
		Partitions:      cfg.Partitions,
		Test:            cfg.Test,
		Alpha:           cfg.Alpha,
		Policy:          cfg.Policy,
		APE:             cfg.APE,
		OptimizeWeights: cfg.OptimizeWeights,
		WeightOpt:       cfg.WeightOpt,
		BatchSize:       cfg.BatchSize,
		MaxIterations:   cfg.MaxIterations,
		Convergence:     cfg.Convergence,
		EvalEvery:       cfg.EvalEvery,
		Seed:            cfg.Seed,
		PerNodeInit:     cfg.PerNodeInit,
		Float32Wire:     cfg.Float32Wire,
		FailureRate:     cfg.FailureRate,
		Obs:             cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return cluster.Run()
}

// BaselineConfig configures the paper's comparison schemes.
type BaselineConfig struct {
	// Topology is required for PS, TernGrad and DGD (ignored by Centralized).
	Topology *Topology
	// Model, Partitions, Alpha as in Config.
	Model      Model
	Partitions []*Dataset
	Test       *Dataset
	Alpha      float64
	// BatchSize limits per-worker gradients for PS/TernGrad (0 = full).
	BatchSize     int
	MaxIterations int
	Convergence   ConvergenceDetector
	EvalEvery     int
	Seed          int64
}

// TrainCentralized runs the pooled-data yardstick baseline.
func TrainCentralized(cfg BaselineConfig) (*Result, error) {
	return baseline.RunCentralized(baseline.CentralizedConfig{
		Model:         cfg.Model,
		Partitions:    cfg.Partitions,
		Test:          cfg.Test,
		Alpha:         cfg.Alpha,
		MaxIterations: cfg.MaxIterations,
		Convergence:   cfg.Convergence,
		Seed:          cfg.Seed,
	})
}

// TrainPS runs the parameter-server baseline over cfg.Topology.
func TrainPS(cfg BaselineConfig) (*Result, error) {
	return baseline.RunPS(baseline.PSConfig{
		Topology:      cfg.Topology,
		Model:         cfg.Model,
		Partitions:    cfg.Partitions,
		Test:          cfg.Test,
		Alpha:         cfg.Alpha,
		BatchSize:     cfg.BatchSize,
		MaxIterations: cfg.MaxIterations,
		Convergence:   cfg.Convergence,
		EvalEvery:     cfg.EvalEvery,
		Seed:          cfg.Seed,
	})
}

// TrainDGD runs classic decentralized gradient descent over cfg.Topology
// — the inexact peer-to-peer baseline EXTRA (and therefore SNAP)
// improves on: with a constant step size DGD's nodes never fully agree.
// DGD is EXTRA's first step, x⁺ = W·x − α∇f(x), taken every round; it
// runs on the simulated SNAP round with Metropolis weights and full
// parameter frames, whose encoded bytes are its cost. BatchSize is
// ignored.
func TrainDGD(cfg BaselineConfig) (*Result, error) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Topology:      cfg.Topology,
		Model:         cfg.Model,
		Partitions:    cfg.Partitions,
		Test:          cfg.Test,
		Alpha:         cfg.Alpha,
		Policy:        core.SendAll,
		DGD:           true,
		MaxIterations: cfg.MaxIterations,
		Convergence:   cfg.Convergence,
		EvalEvery:     cfg.EvalEvery,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return cluster.Run()
}

// TrainTernGrad runs the TernGrad baseline (PS with 2-bit ternary
// worker→server gradients) over cfg.Topology.
func TrainTernGrad(cfg BaselineConfig) (*Result, error) {
	return baseline.RunPS(baseline.PSConfig{
		Topology:      cfg.Topology,
		Model:         cfg.Model,
		Partitions:    cfg.Partitions,
		Test:          cfg.Test,
		Alpha:         cfg.Alpha,
		BatchSize:     cfg.BatchSize,
		MaxIterations: cfg.MaxIterations,
		Convergence:   cfg.Convergence,
		EvalEvery:     cfg.EvalEvery,
		Seed:          cfg.Seed,
		Ternary:       true,
	})
}
