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
		cfg  snap.PeerConfig
		opts nodeFlags
	)
	flag.IntVar(&cfg.ID, "id", -1, "this node's index (0-based)")
	flag.StringVar(&opts.Peers, "peers", "", "comma-separated listen addresses for ALL nodes, index-aligned")
	flag.StringVar(&opts.Topology, "topology", "complete", "neighbor graph: complete, ring, or random")
	flag.Float64Var(&opts.Degree, "degree", 3, "average degree for -topology random")
	flag.IntVar(&opts.Rounds, "rounds", 60, "training rounds")
	flag.Float64Var(&cfg.Alpha, "alpha", 0.1, "EXTRA step size")
	flag.StringVar(&opts.Policy, "policy", "snap", "transmission policy: snap, snap0, sno")
	flag.Int64Var(&cfg.Seed, "seed", 1, "shared seed for initial parameters and topology")
	flag.Int64Var(&opts.DataSeed, "data-seed", 2, "shared seed for the synthetic dataset")
	flag.IntVar(&opts.Samples, "samples", 12000, "total synthetic samples across the cluster")
	flag.DurationVar(&cfg.RoundTimeout, "round-timeout", 5*time.Second, "per-round straggler timeout")

	flag.DurationVar(&cfg.ConnectTimeout, "connect-timeout", 10*time.Second, "cluster-formation timeout")
	flag.IntVar(&cfg.RefreshEvery, "refresh-every", 0, "broadcast full parameters every N rounds (0 = never); heals staleness on lossy links")
	flag.IntVar(&cfg.RestartEvery, "restart-every", 0, "restart the EXTRA recursion every N rounds (0 = never); bounds staleness bias")
	flag.BoolVar(&cfg.FullSendRound0, "full-send-round0", false, "broadcast full parameters in round 0 (required for non-identical inits)")
	flag.BoolVar(&opts.Verbose, "verbose", false, "log tolerated faults (failed sends, reconnects, refreshes)")

	flag.StringVar(&opts.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text), /snapshot (JSON) and /trace on this address while training (e.g. 127.0.0.1:9090; empty = off)")
	flag.StringVar(&opts.EventsPath, "events", "", "append round-lifecycle events as JSON lines to this file (\"-\" = stderr; empty = off)")
	flag.BoolVar(&opts.Pprof, "pprof", true, "also mount /debug/pprof on -metrics-addr; disable on any address reachable beyond the operator (profiles expose memory contents)")
	flag.IntVar(&cfg.TraceRounds, "trace-rounds", 0, "record per-round distributed traces in a ring of this many rounds, served at /trace and pushed to the coordinator in elastic mode (0 = off)")
	flag.BoolVar(&opts.ServeParams, "serve-params", true, "with -metrics-addr, also publish the model every round and serve the current snapshot at /params so snapserve gateways can follow this node live")

	flag.StringVar(&cfg.CoordinatorAddr, "coordinator", "", "coordinator control-plane address; enables elastic mode (-id/-peers/-topology are then ignored)")
	flag.DurationVar(&cfg.JoinWait, "join", 2*time.Minute, "elastic mode: how long to wait for admission and the founding quorum")
	flag.StringVar(&cfg.ListenAddr, "listen", "127.0.0.1:0", "elastic mode: data-plane listen address")
	flag.StringVar(&cfg.Advertise, "advertise", "", "elastic mode: data-plane address other members dial (default: the bound listen address)")
	flag.IntVar(&opts.Shards, "shards", 8, "elastic mode: number of data shards; a node with id i trains shard i mod shards")
	flag.Parse()

	if err := run(cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "snapnode:", err)
		os.Exit(1)
	}
}

// nodeFlags holds the flags that are the command's own rather than
// PeerConfig fields: the static cluster layout, the run length, the
// synthetic data and what the node serves.
type nodeFlags struct {
	Peers    string // static mode: index-aligned listen addresses
	Topology string // static mode: complete, ring or random
	Degree   float64
	Rounds   int
	Policy   string
	DataSeed int64
	Samples  int
	Shards   int // elastic mode: a node with id i trains shard i mod Shards

	MetricsAddr string
	EventsPath  string
	Pprof       bool
	ServeParams bool
	Verbose     bool
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
func observability(opts nodeFlags) (*snap.Observer, *snap.MetricsRegistry, *snap.EventLog, func() error, error) {
	cleanup := func() error { return nil }
	if opts.MetricsAddr == "" && opts.EventsPath == "" {
		return nil, nil, nil, cleanup, nil
	}
	reg := snap.NewMetricsRegistry()
	var eventLog *snap.EventLog
	if opts.EventsPath != "" {
		if opts.EventsPath == "-" {
			eventLog = snap.NewEventLog(os.Stderr)
		} else {
			f, err := os.OpenFile(opts.EventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
func paramFeed(opts nodeFlags) *snap.ParamFeed {
	if opts.MetricsAddr == "" || !opts.ServeParams {
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
func serveNodeObservability(opts nodeFlags, id int, reg *snap.MetricsRegistry,
	eventLog *snap.EventLog, node *snap.PeerNode, feed *snap.ParamFeed) (func() error, error) {
	var params = snap.ObserveConfig{
		Node:         id,
		Reg:          reg,
		Log:          eventLog,
		PprofEnabled: opts.Pprof,
		Trace:        snap.TraceHandler(node.Tracer()),
	}
	if feed != nil {
		params.Params = snap.ParamsHandler(feed)
	}
	srv, addr, err := snap.ServeObservabilityWith(opts.MetricsAddr, params)
	if err != nil {
		return nil, fmt.Errorf("start metrics server: %w", err)
	}
	fmt.Printf("node %d metrics on http://%s/metrics\n", id, addr)
	if node.Tracer() != nil {
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
// node trains shard id mod -shards. cfg carries the flags that are
// PeerConfig fields; run fills in the rest.
func run(cfg snap.PeerConfig, opts nodeFlags) (err error) {
	elastic := cfg.CoordinatorAddr != ""
	var peers []string
	shards := opts.Shards
	if elastic {
		if shards <= 0 {
			return fmt.Errorf("-shards must be positive, got %d", opts.Shards)
		}
	} else {
		peers = strings.Split(opts.Peers, ",")
		n := len(peers)
		if opts.Peers == "" || n < 2 {
			return fmt.Errorf("-peers must list at least two addresses")
		}
		if cfg.ID < 0 || cfg.ID >= n {
			return fmt.Errorf("-id %d out of range for %d peers", cfg.ID, n)
		}
		switch opts.Topology {
		case "complete":
			cfg.Topology = snap.CompleteTopology(n)
		case "ring":
			cfg.Topology = snap.RingTopology(n)
		case "random":
			cfg.Topology = snap.RandomTopology(n, opts.Degree, cfg.Seed)
		default:
			return fmt.Errorf("unknown -topology %q", opts.Topology)
		}
		cfg.ListenAddr, shards = peers[cfg.ID], n
	}

	if cfg.Policy, err = parsePolicy(opts.Policy); err != nil {
		return err
	}

	// Every node generates the same dataset and trains shard id mod shards
	// of it; an elastic node's id is only known after admission.
	rng := rand.New(rand.NewSource(opts.DataSeed))
	ds := snap.SyntheticCredit(snap.CreditConfig{Samples: opts.Samples}, rng)
	train, test := ds.Split(0.85, rng)
	parts, err := train.Partition(shards, rng)
	if err != nil {
		return err
	}
	cfg.DataForID = func(id int) *snap.Dataset { return parts[id%shards] }
	cfg.Model = snap.NewLinearSVM(ds.NumFeature)

	if opts.Verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Observability: metrics registry + JSONL event log, served over HTTP
	// once the node (and therefore its id and tracer) exists.
	observer, reg, eventLog, cleanup, err := observability(opts)
	if err != nil {
		return err
	}
	defer closeAnd(&err, "close -events file", cleanup)
	cfg.Obs = observer

	cfg.Feed = paramFeed(opts)
	if elastic {
		fmt.Printf("joining cluster via coordinator %s\n", cfg.CoordinatorAddr)
	}
	node, err := snap.NewPeerNode(cfg)
	if err != nil {
		return err
	}
	defer closeAnd(&err, "close node", node.Close)
	id := node.Engine().ID()
	if cfg.Feed != nil {
		// Publications start with the first training round, so wiring the
		// observer here is race-free.
		cfg.Feed.SetObserver(observer, id)
	}
	if elastic {
		fmt.Printf("node %d admitted (epoch %d), listening on %s; training to round %d\n",
			id, node.Epoch(), node.Addr(), opts.Rounds)
	}

	if opts.MetricsAddr != "" {
		closeSrv, err := serveNodeObservability(opts, id, reg, eventLog, node, cfg.Feed)
		if err != nil {
			return err
		}
		defer closeAnd(&err, "close metrics server", closeSrv)
	}

	if !elastic {
		neighbors := make(map[int]string)
		for _, j := range cfg.Topology.Neighbors(id) {
			neighbors[j] = peers[j]
		}
		fmt.Printf("node %d listening on %s, neighbors %v\n", id, node.Addr(), cfg.Topology.Neighbors(id))
		if err := node.Connect(neighbors); err != nil {
			return err
		}
		fmt.Printf("node %d connected; training %d rounds\n", id, opts.Rounds)
	}

	start := time.Now()
	trace, err := node.Run(opts.Rounds)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	localAcc := snap.Accuracy(cfg.Model, node.Engine().Params(), test)
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
