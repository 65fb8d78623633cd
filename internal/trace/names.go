package trace

// Span names used by the round tracer. Every span recorded through
// Tracer.Span (and every phase name exported in digests) must be one of
// these constants, as metric names must be obs constants: snaptrace, the
// Chrome trace export, and the aggregator's critical-path walk all join
// on these strings.
const (
	// SpanRound is the per-round root span on each node.
	SpanRound = "round"

	// Phase spans, children of SpanRound in pipeline order.
	SpanBuild     = "build"     // BuildUpdate: select parameters to send
	SpanEncode    = "encode"    // codec encoding of the update frame
	SpanBroadcast = "broadcast" // socket writes to every neighbor
	SpanGather    = "gather"    // wait for the round's neighbor frames
	SpanDecode    = "decode"    // codec decoding of received frames
	SpanIntegrate = "integrate" // apply neighbor updates to local views

	// Compute sub-spans recorded by the engine inside Step.
	SpanGrad = "grad" // local gradient (all shards)
	SpanMix  = "mix"  // W-row mixing + EXTRA recursion update

	// Pipelined-round spans (DESIGN.md §14). SpanOverlap is the window
	// where gradient compute and the broadcast+gather ran concurrently —
	// comms time the pipeline hid; SpanFrameDecode is one received
	// frame's decode inside the gather window, recorded per frame so
	// snaptrace shows frames being consumed while later ones are still
	// in flight.
	SpanOverlap     = "overlap"
	SpanFrameDecode = "frame_decode"
)

// PhaseID indexes the fixed per-round phase slots. The order is the round
// pipeline order; NumPhases sizes the preallocated slot array.
type PhaseID int

const (
	PhaseBuild PhaseID = iota
	PhaseEncode
	PhaseBroadcast
	PhaseGather
	PhaseDecode
	PhaseIntegrate
	NumPhases
)

// phaseNames maps PhaseID to its span name.
var phaseNames = [NumPhases]string{
	PhaseBuild:     SpanBuild,
	PhaseEncode:    SpanEncode,
	PhaseBroadcast: SpanBroadcast,
	PhaseGather:    SpanGather,
	PhaseDecode:    SpanDecode,
	PhaseIntegrate: SpanIntegrate,
}

// Name returns the span name of a phase ("" for out-of-range ids).
func (p PhaseID) Name() string {
	if p < 0 || p >= NumPhases {
		return ""
	}
	return phaseNames[p]
}
