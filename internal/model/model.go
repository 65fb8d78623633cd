// Package model implements the machine-learning models SNAP trains: the
// linear SVM used by the paper's large-scale simulations, the 3-layer MLP
// used by its testbed experiments, and a logistic regression used by tests
// (its loss is smooth and strongly convex with L2 regularization, matching
// the convexity assumptions of the paper's Theorem 1).
//
// Every model exposes its parameters as a single flat vector so the
// consensus layer can mix, diff, and selectively transmit them without
// knowing the model's structure. All methods are pure functions of
// (params, batch) and are safe for concurrent use.
package model

import (
	"math"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// Model is a differentiable learner over a flat parameter vector.
type Model interface {
	// Name identifies the model family in logs and experiment output.
	Name() string
	// NumParams returns the length P of the flat parameter vector.
	NumParams() int
	// Loss returns the mean loss of params on batch (including any
	// regularization term); on an empty batch, the regularization term
	// alone.
	Loss(params linalg.Vector, batch []dataset.Sample) float64
	// Gradient returns ∇Loss(params) on batch as a fresh vector.
	Gradient(params linalg.Vector, batch []dataset.Sample) linalg.Vector
	// Predict returns the predicted class label for features x.
	Predict(params linalg.Vector, x []float64) int
	// InitParams returns a reasonable starting parameter vector using
	// randomness from seed (deterministic per seed).
	InitParams(seed int64) linalg.Vector
}

// Accuracy evaluates params on every sample in ds and returns the fraction
// predicted correctly. An empty dataset scores 0.
func Accuracy(m Model, params linalg.Vector, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for _, s := range ds.Samples {
		if m.Predict(params, s.X) == s.Label {
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
