// Package trace gives a SNAP cluster causal, cross-node visibility into
// its synchronous rounds. Each node runs a Tracer: every training round
// opens a root span with per-phase child spans
// (build/encode/broadcast/gather/decode/integrate plus the engine's
// grad/mix sub-spans), and a compact trace context — trace id, sender
// node, round, send timestamp — rides on every transport frame, so a
// receiver can link its gather wait to the specific remote send that
// satisfied it. Completed rounds are exported as RoundDigests (pushed to
// the coordinator over the control plane, or scraped over HTTP), where an
// Aggregator merges them into a cluster-wide per-round timeline with
// NTP-style clock-offset correction, straggler attribution, and
// bytes-saved-vs-full-send accounting.
//
// The Tracer is hot-path safe: all per-round storage (one ring of round
// slots, each with a fixed phase array and preallocated span/recv
// capacity) is allocated at construction, so recording a steady-state
// round allocates nothing. All methods are safe on a nil *Tracer, which
// disables tracing, and safe for concurrent use (the transport's read
// loops record receive observations while the round loop records phases).
package trace

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// BlockBytes is the size of the wire trace block carried (optionally) by
// every transport frame: [trace id u64][send unix-nanos i64][node
// u32][round u32], big-endian like the rest of the frame header.
const BlockBytes = 24

// Context is the trace context that propagates on the wire with each
// frame: enough for the receiver to attribute the frame to the sender's
// round span and to measure one-way latency against its own clock.
type Context struct {
	// TraceID identifies the sender's round span (see ID).
	TraceID uint64
	// Node is the sending node's id.
	Node int
	// Round is the round the frame belongs to.
	Round int
	// SendUnixNanos is the sender's clock at the moment of the send, in
	// Unix nanoseconds.
	SendUnixNanos int64
}

// ID derives the deterministic trace id of one node's round span. Ids
// are globally unique within a training run without coordination: node
// in the high 32 bits, round in the low.
func ID(node, round int) uint64 {
	return uint64(uint32(node))<<32 | uint64(uint32(round))
}

// PutBlock serializes c into dst, which must hold at least BlockBytes.
func PutBlock(dst []byte, c Context) {
	_ = dst[BlockBytes-1]
	binary.BigEndian.PutUint64(dst[0:8], c.TraceID)
	binary.BigEndian.PutUint64(dst[8:16], uint64(c.SendUnixNanos))
	binary.BigEndian.PutUint32(dst[16:20], uint32(c.Node))
	binary.BigEndian.PutUint32(dst[20:24], uint32(c.Round))
}

// ParseBlock decodes a wire trace block. Input shorter than BlockBytes
// is an error, never a panic — the bytes come from remote peers.
func ParseBlock(b []byte) (Context, error) {
	if len(b) < BlockBytes {
		return Context{}, fmt.Errorf("trace: block of %d bytes, need %d", len(b), BlockBytes)
	}
	return Context{
		TraceID:       binary.BigEndian.Uint64(b[0:8]),
		SendUnixNanos: int64(binary.BigEndian.Uint64(b[8:16])),
		Node:          int(int32(binary.BigEndian.Uint32(b[16:20]))),
		Round:         int(int32(binary.BigEndian.Uint32(b[20:24]))),
	}, nil
}

// Config sizes a Tracer. Zero values select the documented defaults.
type Config struct {
	// Node is this tracer's node id (stamped into every span and digest).
	Node int
	// Rounds is the ring capacity: how many recent rounds are retained
	// (default 128). A digest must be exported (heartbeat push or HTTP
	// scrape) before the ring laps its round, or it is lost.
	Rounds int
	// Recvs caps the receive observations recorded per round (default 32
	// — more than any reasonable topology degree). Excess is counted, not
	// stored.
	Recvs int
	// Spans caps the extra (non-phase) spans per round (default 16: a
	// pipelined round records grad, mix, overlap, and one frame_decode
	// per neighbor, so the default covers degree ≤ 13). Excess is
	// counted, not stored.
	Spans int
}

func (cfg Config) withDefaults() Config {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 128
	}
	if cfg.Recvs <= 0 {
		cfg.Recvs = 32
	}
	if cfg.Spans <= 0 {
		cfg.Spans = 16
	}
	return cfg
}

// phaseTimes is one fixed phase slot (zero start means "not recorded").
type phaseTimes struct {
	start, end int64 // unix nanos
}

// spanRec is one extra (non-phase) span.
type spanRec struct {
	name       string
	start, end int64 // unix nanos
}

// roundSlot is the preallocated per-round storage. Slots are recycled
// ring-style: round r lives in slot r % len(ring) until round
// r + len(ring) claims it.
type roundSlot struct {
	used       bool
	round      int
	start, end int64 // root span, unix nanos; zero = unset
	phases     [NumPhases]phaseTimes
	spans      []spanRec    // len grows to cap, never beyond
	recvs      []RecvDigest // len grows to cap, never beyond

	framesSent              int
	bytesSent, bytesFull    int64
	paramsSent, paramsTotal int

	droppedSpans, droppedRecvs int
}

// Tracer records one node's round spans into a fixed ring. All methods
// are nil-safe and mutex-serialized; the steady-state recording path
// (StartRound, Phase, Span, Recv, Sent, EndRound) performs no
// allocations.
type Tracer struct {
	cfg  Config
	mu   sync.Mutex
	ring []roundSlot // guarded by mu
}

// New builds a tracer with all per-round storage preallocated.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg, ring: make([]roundSlot, cfg.Rounds)}
	for i := range t.ring {
		t.ring[i].spans = make([]spanRec, 0, cfg.Spans)
		t.ring[i].recvs = make([]RecvDigest, 0, cfg.Recvs)
	}
	return t
}

// Enabled reports whether tracing is on (false for a nil tracer), so
// callers can skip work that only feeds the tracer.
func (t *Tracer) Enabled() bool { return t != nil }

// Node returns the tracer's node id.
func (t *Tracer) Node() int {
	if t == nil {
		return -1
	}
	return t.cfg.Node
}

// slotFor returns the slot for round, resetting it if it currently holds
// an older round. A slot holding a *newer* round is left alone and nil
// is returned: a stale late frame must not clobber live data. Caller
// holds t.mu.
func (t *Tracer) slotFor(round int) *roundSlot {
	if round < 0 {
		return nil
	}
	s := &t.ring[round%len(t.ring)]
	if s.used {
		if s.round == round {
			return s
		}
		if s.round > round {
			return nil
		}
	}
	// Claim (or reclaim) the slot for this round. Receive observations
	// can arrive before the local loop starts the round — whichever
	// writer touches the slot first resets it; the others find round
	// already matching and append.
	s.used = true
	s.round = round
	s.start, s.end = 0, 0
	s.phases = [NumPhases]phaseTimes{}
	s.spans = s.spans[:0]
	s.recvs = s.recvs[:0]
	s.framesSent = 0
	s.bytesSent, s.bytesFull = 0, 0
	s.paramsSent, s.paramsTotal = 0, 0
	s.droppedSpans, s.droppedRecvs = 0, 0
	return s
}

// StartRound opens the round's root span at time `at`.
func (t *Tracer) StartRound(round int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		s.start = at.UnixNano()
	}
	t.mu.Unlock()
}

// EndRound closes the round's root span at time `at`. A round digest
// becomes exportable (DigestsSince) once its root span is closed.
func (t *Tracer) EndRound(round int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		s.end = at.UnixNano()
	}
	t.mu.Unlock()
}

// Phase records one fixed pipeline phase of the round.
func (t *Tracer) Phase(round int, p PhaseID, start, end time.Time) {
	if t == nil || p < 0 || p >= NumPhases {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		s.phases[p] = phaseTimes{start: start.UnixNano(), end: end.UnixNano()}
	}
	t.mu.Unlock()
}

// Span records an extra child span (e.g. the engine's grad/mix
// sub-spans). name must be a constant from names.go. Spans beyond the
// preallocated capacity are counted as dropped, never stored.
func (t *Tracer) Span(round int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		if len(s.spans) < cap(s.spans) {
			s.spans = append(s.spans, spanRec{name: name, start: start.UnixNano(), end: end.UnixNano()})
		} else {
			s.droppedSpans++
		}
	}
	t.mu.Unlock()
}

// Recv records the arrival of a traced frame: the sender's wire context
// plus the local receive time `at`. Called from transport read loops.
func (t *Tracer) Recv(round, from, bytes int, ctx Context, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		if len(s.recvs) < cap(s.recvs) {
			s.recvs = append(s.recvs, RecvDigest{
				From:          from,
				Bytes:         bytes,
				TraceID:       ctx.TraceID,
				SendUnixNanos: ctx.SendUnixNanos,
				RecvUnixNanos: at.UnixNano(),
			})
		} else {
			s.droppedRecvs++
		}
	}
	t.mu.Unlock()
}

// Sent records the round's send-side accounting: frames actually
// written, payload bytes on the wire, the bytes a full-parameter send
// would have cost (the paper's baseline), and the selected/total
// parameter counts.
func (t *Tracer) Sent(round, frames int, bytes, fullBytes int64, paramsSent, paramsTotal int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.slotFor(round); s != nil {
		s.framesSent = frames
		s.bytesSent = bytes
		s.bytesFull = fullBytes
		s.paramsSent = paramsSent
		s.paramsTotal = paramsTotal
	}
	t.mu.Unlock()
}

// Digest snapshots one round (completed or not); ok is false when the
// ring no longer (or never) holds it. Allocates; not for the hot path.
func (t *Tracer) Digest(round int) (RoundDigest, bool) {
	if t == nil || round < 0 {
		return RoundDigest{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.ring[round%len(t.ring)]
	if !s.used || s.round != round {
		return RoundDigest{}, false
	}
	return t.digestLocked(s), true
}

// DigestsSince returns digests of completed rounds (root span closed)
// with round >= min, in ascending round order, at most max entries.
// Allocates; used by the heartbeat push and the HTTP scrape path.
func (t *Tracer) DigestsSince(min, max int) []RoundDigest {
	if t == nil || max <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []RoundDigest
	for i := range t.ring {
		s := &t.ring[i]
		if s.used && s.end != 0 && s.round >= min {
			out = append(out, t.digestLocked(s))
		}
	}
	sortDigests(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// digestLocked snapshots one slot. Caller holds t.mu.
func (t *Tracer) digestLocked(s *roundSlot) RoundDigest {
	d := RoundDigest{
		Node:           t.cfg.Node,
		Round:          s.round,
		TraceID:        ID(t.cfg.Node, s.round),
		StartUnixNanos: s.start,
		EndUnixNanos:   s.end,
		FramesSent:     s.framesSent,
		BytesSent:      s.bytesSent,
		BytesFullSend:  s.bytesFull,
		ParamsSent:     s.paramsSent,
		ParamsTotal:    s.paramsTotal,
		DroppedSpans:   s.droppedSpans,
		DroppedRecvs:   s.droppedRecvs,
	}
	for p := PhaseID(0); p < NumPhases; p++ {
		ph := s.phases[p]
		if ph.start == 0 {
			continue
		}
		d.Phases = append(d.Phases, SpanDigest{Name: p.Name(), StartUnixNanos: ph.start, EndUnixNanos: ph.end})
	}
	for _, sp := range s.spans {
		d.Spans = append(d.Spans, SpanDigest{Name: sp.name, StartUnixNanos: sp.start, EndUnixNanos: sp.end})
	}
	if len(s.recvs) > 0 {
		d.Recvs = append([]RecvDigest(nil), s.recvs...)
	}
	return d
}

// sortDigests orders digests by ascending round (insertion sort — the
// slices here are a handful of entries).
func sortDigests(ds []RoundDigest) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j-1].Round > ds[j].Round; j-- {
			ds[j-1], ds[j] = ds[j], ds[j-1]
		}
	}
}
