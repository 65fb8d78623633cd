package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types emitted by the instrumented training path. The set mirrors
// the round lifecycle of the paper's RIP-like synchronization model plus
// the fault-tolerance machinery from the transport.
const (
	EvRoundStart = "round_start" // a node begins a training round
	EvRoundEnd   = "round_end"   // a node finished a round (f: seconds, loss)
	EvBroadcast  = "broadcast"   // update broadcast (f: bytes, selected)
	EvGatherWait = "gather_wait" // gather finished (f: seconds, got, want)
	EvIntegrate  = "integrate"   // neighbor updates applied (f: updates)
	EvAPEStage   = "ape_stage"   // APE stage transition (f: stage, threshold, send_threshold)
	EvLinkUp     = "link_up"     // connection to peer established
	EvLinkDown   = "link_down"   // connection to peer died
	EvReconnect  = "reconnect"   // link healed after a failure (f: down_seconds)
	EvRefresh    = "refresh"     // full-parameter broadcast (f: reason)
	EvFault      = "fault"       // tolerated fault (f: kind, error)

	// Control plane: elastic membership and epoch reconfiguration.
	EvLinkDrop       = "link_drop"       // neighbor removed by reconfiguration
	EvMemberJoin     = "member_join"     // coordinator admitted a member (f: addr)
	EvMemberLeave    = "member_leave"    // coordinator removed a member (f: reason)
	EvEpochBroadcast = "epoch_broadcast" // coordinator published an epoch (f: epoch, members, lambda_bar_max, objective)
	EvEpochApplied   = "epoch_applied"   // node switched to an epoch (f: epoch, neighbors, seconds)

	// Distributed tracing.
	EvClockSync = "clock_sync" // coordinator refreshed a member's clock offset (f: offset_seconds, delay_seconds)

	// Serving plane.
	EvModelSwap = "model_swap" // a new model snapshot was published (f: seq, epoch, params)
)

// Event is one JSONL record. Round and Peer are -1 when not applicable
// (e.g. link events carry no round; round events carry no peer).
type Event struct {
	Time  string         `json:"t"`
	Node  int            `json:"node"`
	Type  string         `json:"type"`
	Round int            `json:"round"`
	Peer  int            `json:"peer"`
	F     map[string]any `json:"f,omitempty"`
}

// EventLog writes structured round-lifecycle events as JSON lines to an
// io.Writer. It is safe for concurrent use; write errors are counted, not
// propagated (observability must never fail training). A nil *EventLog
// discards everything.
type EventLog struct {
	mu      sync.Mutex
	w       io.Writer // guarded by mu
	emitted int64     // guarded by mu
	errs    int64     // guarded by mu

	// now is stubbed in tests for deterministic timestamps.
	now func() time.Time
}

// NewEventLog wraps w (e.g. a file or os.Stderr) in an event log.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w, now: time.Now}
}

// Enabled reports whether events are actually recorded. Hot paths use it
// to skip building field maps entirely when the log is nil — the original
// Emit contract allocated a map[string]any per call even when every event
// was discarded.
func (l *EventLog) Enabled() bool { return l != nil }

// fieldsPool recycles event field maps so enabled hot-path emits reuse
// storage instead of allocating a fresh map per event.
var fieldsPool = sync.Pool{
	New: func() any { return make(map[string]any, 8) },
}

// GetFields returns an empty field map from the pool. Pass it to Emit and
// return it with PutFields afterwards — Emit marshals synchronously, so
// the map is free for reuse as soon as Emit returns.
func GetFields() map[string]any { return fieldsPool.Get().(map[string]any) }

// PutFields clears f and returns it to the pool.
func PutFields(f map[string]any) {
	clear(f)
	fieldsPool.Put(f)
}

// Emit writes one event. Use round/peer = -1 for "not applicable"; fields
// may be nil. Safe on a nil receiver.
func (l *EventLog) Emit(node int, typ string, round, peer int, fields map[string]any) {
	if l == nil {
		return
	}
	ev := Event{
		Node:  node,
		Type:  typ,
		Round: round,
		Peer:  peer,
		F:     fields,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Time = l.now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(ev)
	if err != nil {
		l.errs++
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		l.errs++
		return
	}
	l.emitted++
}

// Emitted returns the number of successfully written events.
func (l *EventLog) Emitted() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.emitted
}

// Errors returns the number of events dropped due to write/marshal
// failures.
func (l *EventLog) Errors() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errs
}
