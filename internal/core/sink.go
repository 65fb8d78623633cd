package core

import "github.com/snapml/snap/internal/linalg"

// ParamSink receives end-of-round model snapshots from a training node.
// It is the narrow seam between training and serving: internal/serve's
// Feed implements it, but core deliberately depends only on this
// interface so the serving plane stays optional.
//
// Publish is called from the round loop's goroutine with the node's live
// iterate; implementations must copy the vector during the call and must
// not retain it — the engine recycles the buffer on the next StepMix.
type ParamSink interface {
	Publish(round, epoch int, params linalg.Vector)
}
