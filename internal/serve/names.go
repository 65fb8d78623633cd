// Package serve is the inference plane: it turns a trained (or training)
// SNAP model into an HTTP prediction service. A Feed holds the current
// model snapshot and hot-swaps it atomically as new versions arrive from
// the training cluster; a Gateway coalesces incoming requests into
// micro-batches over a bounded queue with admission control and runs them
// through the alloc-free model.PredictBatchInto path.
//
// The package deliberately does not import internal/core: the training
// side publishes into a Feed through the narrow core.ParamSink interface,
// so serving can also run standalone from a checkpoint file or follow a
// remote node over its observability endpoint.
package serve

// Metric names exported by the serving plane. Like internal/obs/names.go
// these are a closed namespace: every registry call site must use these
// constants, and no two may collide.
const (
	// MServeRequests counts prediction requests admitted to the gateway
	// (before queueing; rejected requests are counted too).
	MServeRequests = "snap_serve_requests_total"

	// MServeRejects counts requests the gateway refused, labeled by
	// LReason (queue_full, deadline, no_model, closed).
	MServeRejects = "snap_serve_rejected_total"

	// MServeShaped counts valid HTTP predict requests that ingress shaping
	// made wait for their admission slot (see pace.go).
	MServeShaped = "snap_serve_shaped_total"

	// MServePredictions counts individual rows predicted (a batched
	// request contributes one per row).
	MServePredictions = "snap_serve_predictions_total"

	// MServeLatency is the end-to-end request latency histogram in
	// seconds, from enqueue to completion (LatencyBuckets).
	MServeLatency = "snap_serve_request_seconds"

	// MServeBatchRows is the histogram of rows per executed micro-batch —
	// the direct view of how well coalescing is working.
	MServeBatchRows = "snap_serve_batch_rows"

	// MServeBatches counts executed micro-batches.
	MServeBatches = "snap_serve_batches_total"

	// MServeQueueDepth gauges the number of requests waiting in the
	// admission queue.
	MServeQueueDepth = "snap_serve_queue_depth"

	// MServeSwaps counts model snapshot publications (hot swaps).
	MServeSwaps = "snap_serve_model_swaps_total"

	// MServeSwapRejects counts refused model loads, labeled by LReason
	// (decode, dim_mismatch).
	MServeSwapRejects = "snap_serve_swap_rejected_total"

	// MServeModelRound and MServeModelEpoch gauge the training round and
	// control-plane epoch of the currently served snapshot.
	MServeModelRound = "snap_serve_model_round"
	MServeModelEpoch = "snap_serve_model_epoch"

	// MServePollErrors counts failed poll attempts by a Follower.
	MServePollErrors = "snap_serve_poll_errors_total"
)

// LReason is the label key distinguishing reject causes.
const LReason = "reason"

// Reject and swap-reject reasons used with LReason.
const (
	ReasonQueueFull   = "queue_full"
	ReasonDeadline    = "deadline"
	ReasonNoModel     = "no_model"
	ReasonClosed      = "closed"
	ReasonDecode      = "decode"
	ReasonDimMismatch = "dim_mismatch"
)

// SpanServeBatch is the tracer span recorded around each executed
// micro-batch (the span's round is the served model's training round).
const SpanServeBatch = "serve_batch"

// RowBuckets is the bucket layout for MServeBatchRows: powers of two up
// to a generous batch ceiling.
var RowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// LatencyBuckets is the bucket layout for MServeLatency: 5 µs to 1 s in
// 1-2-5 steps. A request that finds a worker idle completes in a few
// microseconds, far below obs.TimeBuckets' first bound of 100 µs, and
// one still queued after Config.Deadline (default 1 s) is shed.
var LatencyBuckets = []float64{
	5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1,
}
