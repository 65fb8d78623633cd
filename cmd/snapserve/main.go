// Command snapserve is SNAP's inference gateway: it serves predictions
// from a trained model over HTTP, coalescing concurrent requests into
// micro-batches with admission control (bounded queue, per-request
// deadlines, 429 on overload).
//
// The model comes from one of three sources, hot-swappable at any time:
//
//   - a checkpoint file written with snap.SaveParams (-checkpoint),
//   - a live training node: -follow polls the node's /params endpoint
//     (snapnode -metrics-addr ... -serve-params) and swaps every new
//     round in atomically, so predictions track training progress,
//   - a PUT /v1/model request with a checkpoint body.
//
// Serve a checkpoint:
//
//	snapserve -listen 127.0.0.1:8080 -model svm -features 24 -checkpoint model.ckpt
//
// Follow a training node live:
//
//	snapnode -id 0 -peers ... -metrics-addr 127.0.0.1:9090 &
//	snapserve -listen 127.0.0.1:8080 -model svm -features 24 -follow 127.0.0.1:9090
//
// Then:
//
//	curl -s 127.0.0.1:8080/v1/predict -d '{"features":[0.1, ...]}'
//	curl -s 127.0.0.1:8080/v1/model
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/snapml/snap"
)

func main() {
	var o options
	flag.StringVar(&o.Listen, "listen", "127.0.0.1:8080", "prediction API listen address")
	flag.StringVar(&o.ModelName, "model", "svm", "model architecture: svm or mlp (must match the training cluster)")
	flag.IntVar(&o.Features, "features", 24, "feature dimensionality")
	flag.IntVar(&o.Classes, "classes", 10, "class count (mlp)")
	flag.IntVar(&o.Hidden, "hidden", 30, "hidden units (mlp)")
	flag.StringVar(&o.Checkpoint, "checkpoint", "", "load initial parameters from this snap.SaveParams checkpoint file")
	flag.IntVar(&o.Round, "checkpoint-round", 0, "round stamp for -checkpoint")
	flag.IntVar(&o.Epoch, "checkpoint-epoch", 0, "epoch stamp for -checkpoint")
	flag.StringVar(&o.Follow, "follow", "", "follow a training node live: its observability address (e.g. 127.0.0.1:9090), polled at /params")
	flag.DurationVar(&o.Poll, "poll", 500*time.Millisecond, "poll interval for -follow")
	flag.IntVar(&o.MaxBatch, "max-batch", 32, "row budget per micro-batch (a batch is what queued while the workers were busy)")
	flag.IntVar(&o.QueueDepth, "queue-depth", 1024, "admission queue bound; a full queue answers 429")
	flag.IntVar(&o.Workers, "workers", 2, "batch-executing worker goroutines")
	flag.DurationVar(&o.Deadline, "deadline", time.Second, "per-request time budget (504 when exceeded)")
	flag.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve /metrics and /snapshot on this address (empty = off)")
	flag.StringVar(&o.EventsPath, "events", "", "append model-swap events as JSON lines to this file (\"-\" = stderr; empty = off)")
	flag.BoolVar(&o.Pprof, "pprof", false, "also mount /debug/pprof on -metrics-addr")
	flag.Parse()

	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	if err := run(o, os.Stdout, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "snapserve:", err)
		os.Exit(1)
	}
}

// options bundles every flag so tests drive run directly.
type options struct {
	Listen      string
	ModelName   string
	Features    int
	Classes     int
	Hidden      int
	Checkpoint  string
	Round       int
	Epoch       int
	Follow      string
	Poll        time.Duration
	MaxBatch    int
	QueueDepth  int
	Workers     int
	Deadline    time.Duration
	MetricsAddr string
	EventsPath  string
	Pprof       bool
}

// buildModel maps -model and the shape flags to an architecture.
func buildModel(o options) (snap.Model, error) {
	if o.Features <= 0 {
		return nil, fmt.Errorf("-features must be positive, got %d", o.Features)
	}
	switch o.ModelName {
	case "svm":
		return snap.NewLinearSVM(o.Features), nil
	case "mlp":
		if o.Hidden <= 0 || o.Classes <= 0 {
			return nil, fmt.Errorf("-hidden and -classes must be positive for mlp, got %d and %d", o.Hidden, o.Classes)
		}
		return snap.NewMLP(o.Features, o.Hidden, o.Classes), nil
	default:
		return nil, fmt.Errorf("unknown -model %q (want svm or mlp)", o.ModelName)
	}
}

// closeAnd folds a deferred close error into the return value.
func closeAnd(err *error, what string, close func() error) {
	if cerr := close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("%s: %w", what, cerr)
	}
}

// run starts the gateway and blocks until stop closes or the listener
// fails. ready (may be nil) receives the bound API address — tests use
// it with -listen 127.0.0.1:0.
func run(o options, stdout io.Writer, ready func(addr string), stop <-chan struct{}) (err error) {
	m, err := buildModel(o)
	if err != nil {
		return err
	}

	// Observability: swap/gateway metrics plus JSONL model-swap events.
	var (
		observer *snap.Observer
		reg      *snap.MetricsRegistry
		eventLog *snap.EventLog
	)
	if o.MetricsAddr != "" || o.EventsPath != "" {
		reg = snap.NewMetricsRegistry()
		if o.EventsPath == "-" {
			eventLog = snap.NewEventLog(os.Stderr)
		} else if o.EventsPath != "" {
			f, ferr := os.OpenFile(o.EventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return fmt.Errorf("open -events file: %w", ferr)
			}
			defer closeAnd(&err, "close -events file", f.Close)
			eventLog = snap.NewEventLog(f)
		}
		observer = snap.NewObserver(reg, eventLog)
	}

	gw, err := snap.NewGateway(snap.GatewayConfig{
		Model:      m,
		Features:   o.Features,
		MaxBatch:   o.MaxBatch,
		QueueDepth: o.QueueDepth,
		Workers:    o.Workers,
		Deadline:   o.Deadline,
		Obs:        observer,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	if o.Checkpoint != "" {
		if err := gw.LoadCheckpointFile(o.Checkpoint, o.Round, o.Epoch); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded checkpoint %s (round %d, epoch %d)\n", o.Checkpoint, o.Round, o.Epoch)
	}

	followCtx, cancelFollow := context.WithCancel(context.Background())
	defer cancelFollow()
	if o.Follow != "" {
		url := o.Follow
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		fw := &snap.Follower{URL: url, Gateway: gw, Interval: o.Poll, Obs: observer}
		go fw.Run(followCtx)
		fmt.Fprintf(stdout, "following %s/params every %v\n", url, o.Poll)
	}

	if o.MetricsAddr != "" {
		srv, addr, merr := snap.ServeObservabilityWith(o.MetricsAddr, snap.ObserveConfig{
			Node:         -1,
			Reg:          reg,
			Log:          eventLog,
			PprofEnabled: o.Pprof,
		})
		if merr != nil {
			return fmt.Errorf("start metrics server: %w", merr)
		}
		defer closeAnd(&err, "close metrics server", srv.Close)
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", addr)
	}

	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", o.Listen, err)
	}
	srv := &http.Server{Handler: snap.GatewayHandler(gw)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "serving predictions on http://%s/v1/predict (model %s, %d features)\n",
		ln.Addr(), m.Name(), o.Features)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case <-stop:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-serveErr:
		return err
	}
}
