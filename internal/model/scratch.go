package model

import "sync"

// Scratch is the workspace one per-sample pass of a model runs in: F
// holds intermediate activations and the compacted input values, I the
// compacted input positions. The caller sizes it from the model's
// ScratchSize; a Scratch belongs to one goroutine at a time and carries
// nothing from one call to the next. The linear SVM needs none and
// accepts nil.
//
// T holds the per-call weight copies a batch pass walks (the MLP's
// input-major W1 and gradient block). AccumGrad grows it on first use
// and reuses it after; PredictInto never touches it, so a serving
// Scratch never holds one.
type Scratch struct {
	F []float64
	I []int
	T []float64
}

// sizeT returns T resized to n entries, growing it only when it is too small.
func (sc *Scratch) sizeT(n int) []float64 {
	if cap(sc.T) < n {
		sc.T = make([]float64, n)
	}
	sc.T = sc.T[:n]
	return sc.T
}

func (sc *Scratch) ensure(floats, ints int) *Scratch {
	if cap(sc.F) < floats {
		sc.F = make([]float64, floats)
	}
	if cap(sc.I) < ints {
		sc.I = make([]int, ints)
	}
	sc.F, sc.I = sc.F[:floats], sc.I[:ints]
	return sc
}

// scratchPool serves Model.Loss, whose signature has no room for a
// caller-owned workspace.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func borrowScratch(floats, ints int) *Scratch {
	return scratchPool.Get().(*Scratch).ensure(floats, ints)
}

func returnScratch(sc *Scratch) { scratchPool.Put(sc) }
