package trace

// Wire/JSON digest types. These cross process boundaries twice — pushed
// from nodes to the coordinator inside control-plane heartbeats, and
// served over HTTP to snaptrace — so every exported field carries an
// explicit json tag, and the trace tests pin the encoding byte for byte.

// SpanDigest is one completed span (a pipeline phase or an extra child
// span) in the node's local clock, Unix nanoseconds.
type SpanDigest struct {
	Name           string `json:"name"`
	StartUnixNanos int64  `json:"start"`
	EndUnixNanos   int64  `json:"end"`
}

// RecvDigest is one received frame: the sender's wire trace context plus
// the local arrival time. SendUnixNanos is the *sender's* clock,
// RecvUnixNanos the receiver's — the aggregator reconciles the two with
// its per-node offset estimates.
type RecvDigest struct {
	From          int    `json:"from"`
	Bytes         int    `json:"bytes"`
	TraceID       uint64 `json:"trace_id"`
	SendUnixNanos int64  `json:"send"`
	RecvUnixNanos int64  `json:"recv"`
}

// RoundDigest is one node's complete record of one round: the root span,
// the fixed pipeline phases, extra spans, receive observations, and the
// send-side byte accounting (actual selective-send bytes vs. the
// full-parameter-send baseline the paper compares against).
type RoundDigest struct {
	Node           int          `json:"node"`
	Round          int          `json:"round"`
	TraceID        uint64       `json:"trace_id"`
	StartUnixNanos int64        `json:"start"`
	EndUnixNanos   int64        `json:"end"`
	Phases         []SpanDigest `json:"phases,omitempty"`
	Spans          []SpanDigest `json:"spans,omitempty"`
	Recvs          []RecvDigest `json:"recvs,omitempty"`

	FramesSent    int   `json:"frames_sent"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesFullSend int64 `json:"bytes_full_send"`
	ParamsSent    int   `json:"params_sent"`
	ParamsTotal   int   `json:"params_total"`

	DroppedSpans int `json:"dropped_spans,omitempty"`
	DroppedRecvs int `json:"dropped_recvs,omitempty"`
}

// Phase returns the named phase span and whether it was recorded.
func (d *RoundDigest) Phase(name string) (SpanDigest, bool) {
	for _, p := range d.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return SpanDigest{}, false
}
