// Command snapcoord runs the elastic-cluster coordinator: the control-
// plane service that admits and removes snapnode members at runtime, owns
// the authoritative topology, re-optimizes the mixing weight matrix W
// centrally on every membership change (the paper's Section IV-B
// optimization), and pushes versioned epochs. A node applies an epoch at
// its next round boundary, and each edge takes its new weight on its own,
// in the first round both ends' frames carry the epoch: there is no
// cluster-wide switch round to agree on.
//
// A minimal elastic cluster:
//
//	snapcoord -listen 127.0.0.1:7100 -min-members 3 &
//	snapnode -coordinator 127.0.0.1:7100 &
//	snapnode -coordinator 127.0.0.1:7100 &
//	snapnode -coordinator 127.0.0.1:7100
//
// The coordinator runs until interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/snapml/snap"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:7100", "control-plane listen address")
		minMembers   = flag.Int("min-members", 2, "defer the first epoch until this many members joined")
		attachDegree = flag.Int("attach-degree", 2, "how many existing members a joining node links to")
		hbTimeout    = flag.Duration("heartbeat-timeout", 10*time.Second, "evict members silent for this long (0 = never evict)")
		alpha        = flag.Float64("alpha", 0.1, "EXTRA step size assumed by the convergence bound (match the nodes' -alpha)")
		verbose      = flag.Bool("verbose", false, "log joins, leaves, evictions, and epochs")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /snapshot and /trace on this address (empty = off)")
		eventsPath  = flag.String("events", "", "append membership/epoch events as JSON lines to this file (\"-\" = stderr; empty = off)")
		pprofOn     = flag.Bool("pprof", true, "also mount /debug/pprof on -metrics-addr; disable on any address reachable beyond the operator (profiles expose memory contents)")
		traceRounds = flag.Int("trace-rounds", 0, "aggregate the round-trace digests nodes push on heartbeats, keeping this many merged rounds at /trace, and run NTP-style clock sync against members (0 = off)")
	)
	flag.Parse()

	if err := run(*listen, *minMembers, *attachDegree, *hbTimeout,
		*alpha, *verbose, *metricsAddr, *eventsPath, *pprofOn, *traceRounds); err != nil {
		fmt.Fprintln(os.Stderr, "snapcoord:", err)
		os.Exit(1)
	}
}

// closeAnd runs close when the surrounding function returns and records
// its error into *err unless an earlier error is already being returned.
// Deferred `x.Close()` calls silently drop failures; shutdown errors
// (unflushed event logs, listener teardown) must reach the exit status.
func closeAnd(err *error, what string, close func() error) {
	if cerr := close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("%s: %w", what, cerr)
	}
}

func run(listen string, minMembers, attachDegree int,
	hbTimeout time.Duration, alpha float64, verbose bool,
	metricsAddr, eventsPath string, pprofOn bool, traceRounds int) (err error) {
	var logf func(format string, args ...any)
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var (
		reg      *snap.MetricsRegistry
		eventLog *snap.EventLog
		observer *snap.Observer
	)
	if metricsAddr != "" || eventsPath != "" {
		reg = snap.NewMetricsRegistry()
		if eventsPath != "" {
			if eventsPath == "-" {
				eventLog = snap.NewEventLog(os.Stderr)
			} else {
				f, err := os.OpenFile(eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return fmt.Errorf("open -events file: %w", err)
				}
				defer closeAnd(&err, "close -events file", f.Close)
				eventLog = snap.NewEventLog(f)
			}
		}
		observer = snap.NewObserver(reg, eventLog)
	}

	coord, err := snap.NewCoordinator(snap.CoordinatorConfig{
		ListenAddr:       listen,
		MinMembers:       minMembers,
		AttachDegree:     attachDegree,
		HeartbeatTimeout: hbTimeout,
		Bound:            snap.BoundParams{Alpha: alpha},
		Logf:             logf,
		Obs:              observer,
		TraceRounds:      traceRounds,
	})
	if err != nil {
		return err
	}
	defer closeAnd(&err, "close coordinator", coord.Close)
	fmt.Printf("coordinator listening on %s (min members %d)\n", coord.Addr(), minMembers)

	if metricsAddr != "" {
		srv, addr, err := snap.ServeObservabilityWith(metricsAddr, snap.ObserveConfig{
			Node:         -1,
			Reg:          reg,
			Log:          eventLog,
			PprofEnabled: pprofOn,
			Trace:        snap.ClusterTraceHandler(coord.Trace()),
		})
		if err != nil {
			return fmt.Errorf("start metrics server: %w", err)
		}
		defer closeAnd(&err, "close metrics server", srv.Close)
		fmt.Printf("coordinator metrics on http://%s/metrics\n", addr)
		if traceRounds > 0 {
			fmt.Printf("coordinator cluster trace on http://%s/trace\n", addr)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("coordinator shutting down (%v); members: %v\n", s, coord.Members())
	return nil
}
