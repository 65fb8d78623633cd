package model

import "github.com/snapml/snap/internal/linalg"

// PredictScratch holds the reusable intermediate buffers PredictBatchInto
// needs. One scratch belongs to one predicting goroutine (e.g. one serving
// worker) and is reused across calls; the zero value is ready to use.
type PredictScratch struct {
	work Scratch
}

// PredictBatchInto predicts the class label of every row of xs into
// dst[:len(xs)] and returns it. dst must have len >= len(xs).
//
// The batch runs through PredictInto with a scratch buffer recycled from
// sc, so the steady state allocates nothing. A nil sc allocates a private
// scratch (one allocation, not per row).
func PredictBatchInto(m Model, dst []int, params linalg.Vector, xs [][]float64, sc *PredictScratch) []int {
	if sc == nil {
		sc = &PredictScratch{}
	}
	work := sc.work.ensure(m.ScratchSize())
	for i, x := range xs {
		dst[i] = m.PredictInto(params, x, work)
	}
	return dst[:len(xs)]
}
