// Package model implements the two models SNAP trains: the linear SVM
// used by the paper's large-scale simulations and the 3-layer MLP used by
// its testbed experiments.
//
// Every model exposes its parameters as a single flat vector so the
// consensus layer can mix, diff, and selectively transmit them without
// knowing the model's structure. All methods are pure functions of
// (params, batch) and are safe for concurrent use with disjoint scratch.
package model

import (
	"math"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// Model is a differentiable learner over a flat parameter vector. Its
// gradient splits into a batch-independent regularizer term plus a sum of
// per-sample terms, which GradientLossTo shards and reduces; its
// per-sample passes run in a caller-owned Scratch, so the training and
// serving hot paths allocate nothing.
type Model interface {
	// Name identifies the model family in logs and experiment output.
	Name() string
	// NumParams returns the length P of the flat parameter vector.
	NumParams() int
	// InitParams returns a reasonable starting parameter vector using
	// randomness from seed (deterministic per seed).
	InitParams(seed int64) linalg.Vector
	// Loss returns the mean loss of params on batch (including any
	// regularization term); on an empty batch, the regularization term
	// alone.
	Loss(params linalg.Vector, batch []dataset.Sample) float64
	// RegGradTo overwrites dst with the batch-independent gradient term
	// (the regularizer ∇r(params); all zeros for unregularized models).
	// The matching loss term r(params) is Loss on an empty batch.
	RegGradTo(dst, params linalg.Vector)
	// ScratchSize returns how many F and I slots of a Scratch one
	// AccumGrad or PredictInto call needs (0, 0 for the linear SVM,
	// whose score is a single dot product).
	ScratchSize() (floats, ints int)
	// AccumGrad adds the unscaled per-sample loss-gradient terms of
	// batch to dst, dst += Σ_s ∇ℓ(params; s), and returns the unscaled
	// data loss Σ_s ℓ(params; s), summed in batch order. The 1/m mean
	// scaling is applied once by GradientLossTo, not per sample.
	// Implementations must be safe for concurrent calls with disjoint
	// dst and sc.
	AccumGrad(dst, params linalg.Vector, batch []dataset.Sample, sc *Scratch) float64
	// PredictInto returns the predicted class label for features x,
	// using sc (sized by ScratchSize) for any intermediate activations.
	// It must be pure in (params, x) and safe for concurrent calls with
	// disjoint sc.
	PredictInto(params linalg.Vector, x []float64, sc *Scratch) int
}

// Accuracy evaluates params on every sample in ds and returns the fraction
// predicted correctly. An empty dataset scores 0.
func Accuracy(m Model, params linalg.Vector, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var sc Scratch
	work := sc.ensure(m.ScratchSize())
	correct := 0
	for _, s := range ds.Samples {
		if m.PredictInto(params, s.X, work) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// MeanLoss evaluates the mean loss of params across the whole dataset in
// one call.
func MeanLoss(m Model, params linalg.Vector, ds *dataset.Dataset) float64 {
	return m.Loss(params, ds.Samples)
}

func sigmoid(z float64) float64 {
	// Numerically stable in both tails.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// signedLabel maps a {0,1} class label to {-1,+1} for margin losses.
func signedLabel(label int) float64 {
	if label == 0 {
		return -1
	}
	return 1
}
