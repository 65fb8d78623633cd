package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeConfig configures one node's observability surface.
type ServeConfig struct {
	// Node is echoed into /snapshot for multi-node scrape aggregation.
	Node int
	// Reg backs /metrics and /snapshot.
	Reg *Registry
	// Log, when set, contributes its emitted/dropped counters to /snapshot.
	Log *EventLog
	// PprofEnabled mounts the /debug/pprof/* handlers. Leave it off on any
	// address reachable beyond the operator: pprof exposes heap contents
	// and can burn CPU on demand (see README, "Securing the metrics
	// address").
	PprofEnabled bool
	// Trace, when set, is mounted at /trace — a node serves its own round
	// digests (trace.DigestHandler), the coordinator serves the merged
	// cluster view (trace.ClusterHandler).
	Trace http.Handler
	// Params, when set, is mounted at /params — a training node serves
	// its current model snapshot as a checkpoint stream
	// (serve.ParamsHandler) so inference gateways can follow it live.
	Params http.Handler
}

// NewHandler builds the observability handler described by cfg:
//
//	/metrics        Prometheus text exposition of the registry
//	/snapshot       JSON snapshot of every metric (expvar-style)
//	/trace          round trace digests (when cfg.Trace is set)
//	/params         current model snapshot checkpoint (when cfg.Params is set)
//	/debug/pprof/*  the standard pprof handlers (when cfg.PprofEnabled)
func NewHandler(cfg ServeConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, cfg.Reg.Text())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := map[string]any{
			"node":    cfg.Node,
			"metrics": cfg.Reg.Snapshot(),
		}
		if cfg.Log != nil {
			snap["events_emitted"] = cfg.Log.Emitted()
			snap["events_dropped"] = cfg.Log.Errors()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
	if cfg.Trace != nil {
		mux.Handle("/trace", cfg.Trace)
	}
	if cfg.Params != nil {
		mux.Handle("/params", cfg.Params)
	}
	if cfg.PprofEnabled {
		// Explicit pprof wiring: importing net/http/pprof only registers on
		// http.DefaultServeMux, which we deliberately do not serve.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ServeWith starts an HTTP server for NewHandler(cfg) on addr in a
// background goroutine and returns the server (for Close/Shutdown) and
// the bound address (useful with ":0"). The server's lifetime is the
// caller's responsibility; serve errors after Close are discarded.
func ServeWith(addr string, cfg ServeConfig) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(cfg)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
