package snap

import (
	"io"
	"net/http"

	"github.com/snapml/snap/internal/obs"
)

// Observability: every training path (simulated Cluster and TCP PeerNode)
// can stream metrics into a MetricsRegistry and round-lifecycle events
// into a JSONL EventLog, and a node can serve both live over HTTP — the
// measurement substrate for the paper's quantitative claims
// (communication cost, APE schedule, straggler waits).
//
// Typical testbed wiring:
//
//	reg := snap.NewMetricsRegistry()
//	log := snap.NewEventLog(eventsFile)
//	node, _ := snap.NewPeerNode(snap.PeerConfig{ ..., Obs: snap.NewObserver(reg, log)})
//	srv, addr, _ := snap.ServeObservabilityWith(":9090", snap.ObserveConfig{
//		Node: id, Reg: reg, Log: log, PprofEnabled: true,
//	})
//	defer srv.Close()
//
// then scrape http://addr/metrics (Prometheus text), GET /snapshot
// (JSON), or profile via /debug/pprof while training runs.
type (
	// MetricsRegistry holds named counters, gauges and histograms; all
	// operations are safe for concurrent use.
	MetricsRegistry = obs.Registry
	// EventLog writes structured JSONL round-lifecycle events (round
	// start/end, broadcast, gather waits, APE stage changes, link
	// up/down/reconnect, refreshes, tolerated faults).
	EventLog = obs.EventLog
	// Observer bundles a registry and event log for config structs.
	Observer = obs.Observer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog returns an event log writing JSON lines to w (a file,
// os.Stderr, …). Writes are serialized; errors are counted, not fatal.
func NewEventLog(w io.Writer) *EventLog { return obs.NewEventLog(w) }

// NewObserver bundles a registry and event log; either may be nil.
func NewObserver(reg *MetricsRegistry, log *EventLog) *Observer {
	return &Observer{Reg: reg, Log: log}
}

// ObserveConfig configures the observability HTTP endpoint: which node
// it describes, what it exposes, and whether the pprof profiling
// handlers are mounted.
type ObserveConfig = obs.ServeConfig

// ObservabilityHandlerWith builds the endpoint from an ObserveConfig:
// /metrics and /snapshot always, /trace when cfg.Trace is set (use
// TraceHandler or ClusterTraceHandler), /debug/pprof/* only when
// cfg.PprofEnabled.
func ObservabilityHandlerWith(cfg ObserveConfig) http.Handler {
	return obs.NewHandler(cfg)
}

// ServeObservabilityWith starts ObservabilityHandlerWith on addr (":0"
// for an ephemeral port) in the background, returning the server and the
// bound address. Close the server when done.
func ServeObservabilityWith(addr string, cfg ObserveConfig) (*http.Server, string, error) {
	return obs.ServeWith(addr, cfg)
}
