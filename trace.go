package snap

import (
	"net/http"

	"github.com/snapml/snap/internal/trace"
)

// Distributed tracing: every node can record a per-round trace (phase
// spans, per-frame send/receive timestamps carried on the wire, byte
// accounting versus a hypothetical full send), and a coordinator — or any
// process holding all the digests — can merge them into a cluster-wide
// view with per-round stragglers, critical paths, clock-offset estimates,
// and cumulative communication savings. See DESIGN.md §12 and the
// "Tracing a cluster" walkthrough in README.md.
type (
	// Tracer records one node's round traces into a fixed-size ring with
	// zero steady-state allocations. All methods are safe on a nil
	// receiver, so tracing can be compiled in unconditionally and enabled
	// by wiring.
	Tracer = trace.Tracer
	// RoundDigest is one node's completed round: phases, sub-spans,
	// received frames with the senders' wire timestamps, and byte
	// accounting.
	RoundDigest = trace.RoundDigest
	// TraceAggregator merges round digests from many nodes into cluster
	// rounds and estimates per-node clock offsets from NTP-style probes.
	TraceAggregator = trace.Aggregator
	// ClusterRound is one merged round: every reporting node's digest in
	// a common reference clock, the straggler verdict, the cross-node
	// critical path, and the round's bytes saved versus full sends.
	ClusterRound = trace.ClusterRound
	// SpanDigest is one completed span inside a RoundDigest.
	SpanDigest = trace.SpanDigest
	// RecvDigest is one received frame: the sender's wire trace context
	// plus the local arrival time.
	RecvDigest = trace.RecvDigest
	// NodeRound is one node's digest plus its clock correction inside a
	// ClusterRound.
	NodeRound = trace.NodeRound
	// PathStep is one span on a ClusterRound's cross-node critical path.
	PathStep = trace.PathStep
	// ClockOffset is the aggregator's clock model for one node.
	ClockOffset = trace.OffsetSample
)

// Span names appearing in RoundDigest phases, sub-spans, and critical-
// path steps — the join keys snaptrace and any external trace consumer
// match on.
const (
	SpanRound     = trace.SpanRound
	SpanBuild     = trace.SpanBuild
	SpanEncode    = trace.SpanEncode
	SpanBroadcast = trace.SpanBroadcast
	SpanGather    = trace.SpanGather
	SpanDecode    = trace.SpanDecode
	SpanIntegrate = trace.SpanIntegrate
	SpanGrad      = trace.SpanGrad
	SpanMix       = trace.SpanMix
)

// NewTraceAggregator returns an aggregator retaining the most recent
// keepRounds merged rounds (0 selects the default of 256). Feed it with
// Add / ObserveClock, or let a Coordinator with TraceRounds set do both.
func NewTraceAggregator(keepRounds int) *TraceAggregator {
	return trace.NewAggregator(keepRounds)
}

// TraceHandler serves a node tracer's completed round digests as JSONL
// (one RoundDigest per line; ?since=R and ?max=N narrow the window) —
// the format snaptrace consumes.
func TraceHandler(t *Tracer) http.Handler { return trace.DigestHandler(t) }

// ClusterTraceHandler serves an aggregator's merged cluster rounds as
// JSONL (one ClusterRound per line; ?since= and ?max= as above).
func ClusterTraceHandler(a *TraceAggregator) http.Handler { return trace.ClusterHandler(a) }
