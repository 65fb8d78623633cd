// Command snapnode runs one real SNAP edge server over TCP — the paper's
// testbed deployment mode. Start one process per edge server; each trains
// the shared model on its own data shard and exchanges selected parameters
// with its topology neighbors every round.
//
// The cluster layout is given by flags that must agree across all nodes:
// the node count, topology kind, shared seed, and the peer address list.
//
// Example 3-node cluster on one machine (paper's testbed setup):
//
//	snapnode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	snapnode -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	snapnode -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Every node deterministically generates the same synthetic credit
// dataset from -data-seed and takes shard -id of it, so no data
// distribution step is needed for experimentation.
//
// # Elastic mode
//
// With -coordinator the static flags (-id, -peers, -topology) are ignored:
// the node joins the cluster through a snapcoord coordinator, which
// assigns its id, neighbors, and centrally optimized mixing weights, and
// reconfigures the whole cluster (with a re-optimized weight matrix) every
// time a node joins or leaves:
//
//	snapcoord -listen 127.0.0.1:7100 -min-members 3 &
//	snapnode -coordinator 127.0.0.1:7100 &
//	snapnode -coordinator 127.0.0.1:7100 &
//	snapnode -coordinator 127.0.0.1:7100 &
//	# ... later, join a fourth node mid-training:
//	snapnode -coordinator 127.0.0.1:7100
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/snapml/snap"
)

func main() {
	var (
		id       = flag.Int("id", -1, "this node's index (0-based)")
		peersArg = flag.String("peers", "", "comma-separated listen addresses for ALL nodes, index-aligned")
		topology = flag.String("topology", "complete", "neighbor graph: complete, ring, or random")
		degree   = flag.Float64("degree", 3, "average degree for -topology random")
		rounds   = flag.Int("rounds", 60, "training rounds")
		alpha    = flag.Float64("alpha", 0.1, "EXTRA step size")
		policy   = flag.String("policy", "snap", "transmission policy: snap, snap0, sno")
		seed     = flag.Int64("seed", 1, "shared seed for initial parameters and topology")
		dataSeed = flag.Int64("data-seed", 2, "shared seed for the synthetic dataset")
		samples  = flag.Int("samples", 12000, "total synthetic samples across the cluster")
		timeout  = flag.Duration("round-timeout", 5*time.Second, "per-round straggler timeout")

		connectTimeout = flag.Duration("connect-timeout", 10*time.Second, "cluster-formation timeout")
		refreshEvery   = flag.Int("refresh-every", 0, "broadcast full parameters every N rounds (0 = never); heals staleness on lossy links")
		restartEvery   = flag.Int("restart-every", 0, "restart the EXTRA recursion every N rounds (0 = never); bounds staleness bias")
		fullSendRound0 = flag.Bool("full-send-round0", false, "broadcast full parameters in round 0 (required for non-identical inits)")
		verbose        = flag.Bool("verbose", false, "log tolerated faults (failed sends, reconnects, refreshes)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /snapshot (JSON) and /trace on this address while training (e.g. 127.0.0.1:9090; empty = off)")
		eventsPath  = flag.String("events", "", "append round-lifecycle events as JSON lines to this file (\"-\" = stderr; empty = off)")
		pprofOn     = flag.Bool("pprof", true, "also mount /debug/pprof on -metrics-addr; disable on any address reachable beyond the operator (profiles expose memory contents)")
		traceRounds = flag.Int("trace-rounds", 0, "record per-round distributed traces in a ring of this many rounds, served at /trace and pushed to the coordinator in elastic mode (0 = off)")
		serveParams = flag.Bool("serve-params", true, "with -metrics-addr, also publish the model every round and serve the current snapshot at /params so snapserve gateways can follow this node live")

		coordinator = flag.String("coordinator", "", "coordinator control-plane address; enables elastic mode (-id/-peers/-topology are then ignored)")
		joinWait    = flag.Duration("join", 2*time.Minute, "elastic mode: how long to wait for admission and the founding quorum")
		listenAddr  = flag.String("listen", "127.0.0.1:0", "elastic mode: data-plane listen address")
		advertise   = flag.String("advertise", "", "elastic mode: data-plane address other members dial (default: the bound listen address)")
		shards      = flag.Int("shards", 8, "elastic mode: number of data shards; a node with id i trains shard i mod shards")
	)
	flag.Parse()

	if err := run(*id, *peersArg, *topology, *degree, *rounds, *alpha, *policy,
		*seed, *dataSeed, *samples, *timeout,
		faultOpts{
			ConnectTimeout: *connectTimeout,
			RefreshEvery:   *refreshEvery,
			RestartEvery:   *restartEvery,
			FullSendRound0: *fullSendRound0,
			Verbose:        *verbose,
			MetricsAddr:    *metricsAddr,
			EventsPath:     *eventsPath,
			Pprof:          *pprofOn,
			TraceRounds:    *traceRounds,
			ServeParams:    *serveParams,
			Coordinator:    *coordinator,
			JoinWait:       *joinWait,
			ListenAddr:     *listenAddr,
			Advertise:      *advertise,
			Shards:         *shards,
		}); err != nil {
		fmt.Fprintln(os.Stderr, "snapnode:", err)
		os.Exit(1)
	}
}

// faultOpts bundles the fault-tolerance and observability knobs so run's
// signature stays manageable.
type faultOpts struct {
	ConnectTimeout time.Duration
	RefreshEvery   int
	RestartEvery   int
	FullSendRound0 bool
	Verbose        bool
	MetricsAddr    string
	EventsPath     string
	Pprof          bool
	TraceRounds    int
	ServeParams    bool

	// Elastic mode (all unused unless Coordinator is set).
	Coordinator string
	JoinWait    time.Duration
	ListenAddr  string
	Advertise   string
	Shards      int
}

// parsePolicy maps the -policy flag to a SendPolicy.
func parsePolicy(name string) (snap.SendPolicy, error) {
	switch name {
	case "snap":
		return snap.SNAP, nil
	case "snap0":
		return snap.SNAP0, nil
	case "sno":
		return snap.SNO, nil
	default:
		return 0, fmt.Errorf("unknown -policy %q", name)
	}
}

// observability builds the metrics registry, event log, and observer from
// the flags (all nil when observability is off). The returned cleanup
// closes the event file and reports its error — a close failure on an
// O_APPEND log can mean dropped events, so callers must check it;
// serving over HTTP is the caller's job, since the node id may not be
// known yet.
func observability(fo faultOpts) (*snap.Observer, *snap.MetricsRegistry, *snap.EventLog, func() error, error) {
	cleanup := func() error { return nil }
	if fo.MetricsAddr == "" && fo.EventsPath == "" {
		return nil, nil, nil, cleanup, nil
	}
	reg := snap.NewMetricsRegistry()
	var eventLog *snap.EventLog
	if fo.EventsPath != "" {
		if fo.EventsPath == "-" {
			eventLog = snap.NewEventLog(os.Stderr)
		} else {
			f, err := os.OpenFile(fo.EventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, nil, cleanup, fmt.Errorf("open -events file: %w", err)
			}
			cleanup = f.Close
			eventLog = snap.NewEventLog(f)
		}
	}
	return snap.NewObserver(reg, eventLog), reg, eventLog, cleanup, nil
}

// paramFeed builds the per-round model publication feed when the node
// serves one (-metrics-addr set and -serve-params on). Nil otherwise.
func paramFeed(fo faultOpts) *snap.ParamFeed {
	if fo.MetricsAddr == "" || !fo.ServeParams {
		return nil
	}
	return snap.NewParamFeed()
}

// serveNodeObservability starts the HTTP observability endpoint for a
// built node: /metrics and /snapshot always, the node's own round-trace
// digests at /trace (404 until -trace-rounds enables tracing), the
// current model snapshot at /params (404 unless -serve-params), and
// /debug/pprof only while the operator keeps -pprof on. Returns the
// server's close function.
func serveNodeObservability(fo faultOpts, id int, reg *snap.MetricsRegistry,
	eventLog *snap.EventLog, node *snap.PeerNode, feed *snap.ParamFeed) (func() error, error) {
	var params = snap.ObserveConfig{
		Node:         id,
		Reg:          reg,
		Log:          eventLog,
		PprofEnabled: fo.Pprof,
		Trace:        snap.TraceHandler(node.Tracer()),
	}
	if feed != nil {
		params.Params = snap.ParamsHandler(feed)
	}
	srv, addr, err := snap.ServeObservabilityWith(fo.MetricsAddr, params)
	if err != nil {
		return nil, fmt.Errorf("start metrics server: %w", err)
	}
	fmt.Printf("node %d metrics on http://%s/metrics\n", id, addr)
	if fo.TraceRounds > 0 {
		fmt.Printf("node %d trace on http://%s/trace\n", id, addr)
	}
	if feed != nil {
		fmt.Printf("node %d model snapshots on http://%s/params\n", id, addr)
	}
	return srv.Close, nil
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

// run trains one node. Without -coordinator the node takes shard -id of
// len(peers) shards and its place in the -topology graph over -peers;
// with it, the coordinator assigns the id, neighbors and weights, and the
// node trains shard id mod -shards.
func run(id int, peersArg, topology string, degree float64, rounds int,
	alpha float64, policyName string, seed, dataSeed int64, samples int,
	timeout time.Duration, fo faultOpts) (err error) {
	elastic := fo.Coordinator != ""
	var (
		peers  []string
		topo   *snap.Topology
		listen = fo.ListenAddr
		shards = fo.Shards
	)
	if elastic {
		if shards <= 0 {
			return fmt.Errorf("-shards must be positive, got %d", fo.Shards)
		}
	} else {
		peers = strings.Split(peersArg, ",")
		n := len(peers)
		if peersArg == "" || n < 2 {
			return fmt.Errorf("-peers must list at least two addresses")
		}
		if id < 0 || id >= n {
			return fmt.Errorf("-id %d out of range for %d peers", id, n)
		}
		switch topology {
		case "complete":
			topo = snap.CompleteTopology(n)
		case "ring":
			topo = snap.RingTopology(n)
		case "random":
			topo = snap.RandomTopology(n, degree, seed)
		default:
			return fmt.Errorf("unknown -topology %q", topology)
		}
		listen, shards = peers[id], n
	}

	policy, err := parsePolicy(policyName)
	if err != nil {
		return err
	}

	// Every node generates the same dataset and trains shard id mod shards
	// of it; an elastic node's id is only known after admission.
	rng := rand.New(rand.NewSource(dataSeed))
	ds := snap.SyntheticCredit(snap.CreditConfig{Samples: samples}, rng)
	train, test := ds.Split(0.85, rng)
	parts, err := train.Partition(shards, rng)
	if err != nil {
		return err
	}

	var logf func(format string, args ...any)
	if fo.Verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Observability: metrics registry + JSONL event log, served over HTTP
	// once the node (and therefore its id and tracer) exists.
	observer, reg, eventLog, cleanup, err := observability(fo)
	if err != nil {
		return err
	}
	defer closeAnd(&err, "close -events file", cleanup)

	model := snap.NewLinearSVM(ds.NumFeature)
	feed := paramFeed(fo)
	if elastic {
		fmt.Printf("joining cluster via coordinator %s\n", fo.Coordinator)
	}
	node, err := snap.NewPeerNode(snap.PeerConfig{
		ID:              id,
		Topology:        topo,
		Model:           model,
		DataForID:       func(id int) *snap.Dataset { return parts[id%shards] },
		Alpha:           alpha,
		Policy:          policy,
		Seed:            seed,
		RefreshEvery:    fo.RefreshEvery,
		RestartEvery:    fo.RestartEvery,
		FullSendRound0:  fo.FullSendRound0,
		ListenAddr:      listen,
		CoordinatorAddr: fo.Coordinator,
		Advertise:       fo.Advertise,
		JoinWait:        fo.JoinWait,
		RoundTimeout:    timeout,
		ConnectTimeout:  fo.ConnectTimeout,
		Logf:            logf,
		Obs:             observer,
		TraceRounds:     fo.TraceRounds,
		Feed:            feed,
	})
	if err != nil {
		return err
	}
	defer closeAnd(&err, "close node", node.Close)
	id = node.Engine().ID()
	if feed != nil {
		// Publications start with the first training round, so wiring the
		// observer here is race-free.
		feed.SetObserver(observer, id)
	}
	if elastic {
		fmt.Printf("node %d admitted (epoch %d), listening on %s; training to round %d\n",
			id, node.Epoch(), node.Addr(), rounds)
	}

	if fo.MetricsAddr != "" {
		closeSrv, err := serveNodeObservability(fo, id, reg, eventLog, node, feed)
		if err != nil {
			return err
		}
		defer closeAnd(&err, "close metrics server", closeSrv)
	}

	if !elastic {
		neighbors := make(map[int]string)
		for _, j := range topo.Neighbors(id) {
			neighbors[j] = peers[j]
		}
		fmt.Printf("node %d listening on %s, neighbors %v\n", id, node.Addr(), topo.Neighbors(id))
		if err := node.Connect(neighbors); err != nil {
			return err
		}
		fmt.Printf("node %d connected; training %d rounds\n", id, rounds)
	}

	start := time.Now()
	trace, err := node.Run(rounds)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	localAcc := snap.Accuracy(model, node.Engine().Params(), test)
	lastLoss := 0.0
	if stat, ok := trace.Last(); ok {
		lastLoss = stat.Loss
	}
	epoch := ""
	if elastic {
		epoch = fmt.Sprintf("epoch %d, ", node.Epoch())
	}
	fmt.Printf("node %d done in %v: %slocal loss %.4f, accuracy %.4f, bytes sent %d\n",
		id, elapsed.Round(time.Millisecond), epoch, lastLoss, localAcc, node.BytesSent())
	if node.SendFailures() > 0 || node.Refreshes() > 0 {
		reconnects := 0
		for _, st := range node.LinkStats() {
			reconnects += st.Reconnects
		}
		fmt.Printf("node %d tolerated faults: %d failed broadcast(s), %d reconnect(s), %d full refresh(es)\n",
			id, node.SendFailures(), reconnects, node.Refreshes())
	}
	return nil
}
