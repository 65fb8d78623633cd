package model

import "sync"

// Scratch is the workspace one per-sample pass of a model runs in: F
// holds intermediate activations and the compacted input values, I the
// compacted input positions. The caller sizes it from the model's
// ScratchSize; a Scratch belongs to one goroutine at a time and carries
// nothing from one call to the next. The linear SVM needs none and
// accepts nil. The MLP walks its weights in place, so nothing in a
// Scratch grows with the parameter count.
type Scratch struct {
	F []float64
	I []int
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
