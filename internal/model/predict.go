package model

import "github.com/snapml/snap/internal/linalg"

// BatchPredictor is the optional fast-inference capability: a model that
// can predict into caller-owned buffers without allocating. All four
// built-in models implement it; the serving gateway's steady-state
// predict path depends on it for its zero-allocation budget.
type BatchPredictor interface {
	Model
	// ScratchSize returns how many F and I slots of a Scratch one
	// PredictInto call needs (0, 0 for the linear models, whose score is
	// a single dot product).
	ScratchSize() (floats, ints int)
	// PredictInto returns the predicted class label for features x,
	// using sc (sized by ScratchSize) for any intermediate activations.
	// It must be pure in (params, x) — identical to Predict — and safe
	// for concurrent calls with disjoint sc.
	PredictInto(params linalg.Vector, x []float64, sc *Scratch) int
}

// PredictScratch holds the reusable intermediate buffers PredictBatchInto
// needs. One scratch belongs to one predicting goroutine (e.g. one serving
// worker) and is reused across calls; the zero value is ready to use.
type PredictScratch struct {
	work Scratch
}

// PredictBatchInto predicts the class label of every row of xs into
// dst[:len(xs)] and returns it. dst must have len >= len(xs).
//
// For models implementing BatchPredictor the batch runs through
// PredictInto with a scratch buffer recycled from sc, so the steady state
// allocates nothing; other models fall back to Model.Predict row by row.
// A nil sc allocates a private scratch (one allocation, not per row).
func PredictBatchInto(m Model, dst []int, params linalg.Vector, xs [][]float64, sc *PredictScratch) []int {
	bp, ok := m.(BatchPredictor)
	if !ok {
		for i, x := range xs {
			dst[i] = m.Predict(params, x)
		}
		return dst[:len(xs)]
	}
	if sc == nil {
		sc = &PredictScratch{}
	}
	work := sc.work.ensure(bp.ScratchSize())
	for i, x := range xs {
		dst[i] = bp.PredictInto(params, x, work)
	}
	return dst[:len(xs)]
}
