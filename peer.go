package snap

import (
	"fmt"
	"net"
	"time"

	"github.com/snapml/snap/internal/controlplane"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/weights"
)

// PeerNode is a real TCP edge server (the paper's testbed mode). Create
// one per process (or per goroutine) with NewPeerNode, Connect it to its
// neighbors, then Run a number of rounds.
type PeerNode = core.PeerNode

// PeerConfig configures one TCP edge server. Every participating node
// must use the same Topology, Model, Alpha, Policy and Seed so the
// cluster executes a single coherent EXTRA iteration.
type PeerConfig struct {
	// ID is this node's index in the topology. Ignored in elastic mode
	// (CoordinatorAddr set), where the coordinator assigns the id.
	ID int
	// Topology is the shared neighbor graph; the node mixes with
	// Topology.Neighbors(ID). Ignored in elastic mode, where the
	// coordinator owns the topology.
	Topology *Topology
	// WRow, when set, overrides the mixing weight row this node uses:
	// WRow[j] is w_{ID,j}. It must have Topology.N() entries, sum to 1,
	// and be zero everywhere except the diagonal and the node's topology
	// neighbors. Use OptimizeWeightRows to precompute optimized rows
	// centrally and distribute them; when nil, the node derives the
	// Metropolis row (which needs only local degree information). Ignored
	// in elastic mode, where every epoch carries coordinator-optimized
	// rows.
	WRow []float64
	// Model is the shared architecture.
	Model Model
	// Data is this node's local partition.
	Data *Dataset
	// DataForID, when set, supplies the local partition as a function of
	// the node id — needed in elastic mode when data assignment depends on
	// the id, which is unknown until the coordinator assigns it. Takes
	// precedence over Data.
	DataForID func(id int) *Dataset
	// Alpha is the EXTRA step size.
	Alpha float64
	// Policy selects SNAP / SNAP0 / SNO (default SNAP).
	Policy SendPolicy
	// APE tunes Algorithm 1.
	APE APEConfig
	// BatchSize limits per-iteration gradients (0 = full).
	BatchSize int
	// Float32Wire transmits parameter values as float32, halving value
	// bytes on the wire. All peers must agree on this setting.
	Float32Wire bool
	// Seed derives the shared initial parameters; it must match across
	// nodes.
	Seed int64
	// RefreshEvery, when positive, broadcasts the complete parameter
	// vector every RefreshEvery rounds regardless of Policy — the
	// periodic full advertisement that heals receiver staleness from
	// dropped frames on lossy links.
	RefreshEvery int
	// RestartEvery, when positive, resets the EXTRA correction s to zero
	// every that many rounds, bounding the bias that rounds computed on
	// stale neighbor views bake into s.
	RestartEvery int
	// FullSendRound0 forces a complete parameter broadcast in round 0
	// (required when nodes do not share identical initial parameters).
	FullSendRound0 bool
	// ListenAddr is this node's TCP listen address ("127.0.0.1:0" for an
	// ephemeral port; neighbors are given to Connect after every listener
	// is up).
	ListenAddr string
	// CoordinatorAddr, when set, switches the node to elastic mode: it
	// joins the cluster through the coordinator at this address, receives
	// its id, weight row, and neighbor set from the current epoch, and
	// applies later epochs (membership changes with re-optimized W) at
	// round boundaries. NewPeerNode blocks until the cluster's founding
	// quorum is complete, connects to the epoch's neighbors itself, and
	// returns a node ready to Run — do not call Connect.
	CoordinatorAddr string
	// Advertise is the data-plane address other members dial, when the
	// listener's own address (e.g. an ephemeral 127.0.0.1 port) is not
	// reachable from them. Elastic mode only.
	Advertise string
	// JoinWait bounds how long an elastic node waits in NewPeerNode for
	// the cluster's founding quorum (default 2 minutes).
	JoinWait time.Duration
	// RoundTimeout bounds the per-round wait for stragglers (default 5s).
	RoundTimeout time.Duration
	// ConnectTimeout bounds cluster formation (default 10s).
	ConnectTimeout time.Duration
	// Logf, when set, receives diagnostics about tolerated faults
	// (failed sends, reconnects, refreshes). Nil discards them.
	Logf func(format string, args ...any)
	// Obs, when set, receives the node's live metrics (per-link bytes,
	// gather waits, APE stage, round phase latencies) and JSONL
	// round-lifecycle events; serve them with ServeObservabilityWith. Nil
	// disables observation.
	Obs *Observer
	// Feed, when set, receives a snapshot of the node's parameters at
	// the end of every round — the publication hook the serving plane
	// hangs off. Serve from it locally with NewGateway, or expose it to
	// remote gateways by mounting ParamsHandler(feed) via
	// ObserveConfig.Params.
	Feed *ParamFeed
	// TraceRounds, when positive, enables distributed tracing: the node
	// records per-round phase spans and per-frame timestamps into a ring
	// of TraceRounds rounds, stamps a compact trace context onto every
	// outgoing frame, and — in elastic mode — pushes completed round
	// digests to the coordinator on heartbeats. Retrieve the tracer with
	// PeerNode.Tracer() and serve it with TraceHandler.
	TraceRounds int
}

// NewPeerNode builds a TCP edge server.
//
// In static mode (no CoordinatorAddr) the node takes its position from
// Topology/ID and uses the Metropolis weight row — or the precomputed
// WRow, validated against the topology. Call Connect with the neighbor
// addresses, then Run.
//
// In elastic mode (CoordinatorAddr set) the node binds its listener,
// joins through the coordinator, and configures itself entirely from the
// cluster's current epoch: id, optimized weight row, neighbors and their
// addresses. It connects to those neighbors before returning, so the
// caller proceeds straight to Run.
func NewPeerNode(cfg PeerConfig) (*PeerNode, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("snap: peer config requires a model")
	}
	// Resolve the node's place first — id, weight row, neighbors, and in
	// elastic mode the bound listener, the control client and the epoch —
	// so one engine and node configuration serves both.
	var (
		id     = cfg.ID
		plan   *controlplane.Plan
		ln     net.Listener
		client *controlplane.Client
		err    error
	)
	if cfg.CoordinatorAddr == "" {
		plan, err = staticPlan(cfg)
	} else if ln, client, plan, err = joinCluster(cfg); err == nil {
		id = client.ID()
	}
	if err != nil {
		return nil, err
	}
	data := cfg.Data
	if cfg.DataForID != nil {
		data = cfg.DataForID(id)
	}
	var tracer *trace.Tracer
	if cfg.TraceRounds > 0 {
		tracer = trace.New(trace.Config{Node: id, Rounds: cfg.TraceRounds})
	}
	var feed core.ParamSink // never a nil *ParamFeed boxed non-nil
	if cfg.Feed != nil {
		feed = cfg.Feed
	}
	pn, err := core.NewPeerNode(core.PeerNodeConfig{
		Engine: core.EngineConfig{
			ID:             id,
			Model:          cfg.Model,
			Data:           data,
			Alpha:          cfg.Alpha,
			WRow:           plan.WRow,
			Neighbors:      plan.Neighbors,
			BatchSize:      cfg.BatchSize,
			Float32Wire:    cfg.Float32Wire,
			Policy:         cfg.Policy,
			APE:            cfg.APE,
			RefreshEvery:   cfg.RefreshEvery,
			RestartEvery:   cfg.RestartEvery,
			FullSendRound0: cfg.FullSendRound0,
			Init:           cfg.Model.InitParams(cfg.Seed),
		},
		ListenAddr:     cfg.ListenAddr,
		Listener:       ln,
		Control:        client,
		Epoch:          plan.Epoch,
		RoundTimeout:   cfg.RoundTimeout,
		ConnectTimeout: cfg.ConnectTimeout,
		Logf:           cfg.Logf,
		Obs:            cfg.Obs,
		Tracer:         tracer,
		Feed:           feed,
	})
	if client == nil {
		return pn, err
	}
	if err != nil {
		client.Close()
		ln.Close()
		return nil, err
	}
	if err := pn.Connect(plan.Addrs); err != nil {
		// Unreached neighbors keep reconnecting in the background; the
		// round loop treats them as stragglers meanwhile.
		if cfg.Logf != nil {
			cfg.Logf("node %d: connecting to epoch %d neighbors: %v (continuing)",
				id, plan.Epoch, err)
		}
	}
	return pn, nil
}

// staticPlan places a static-mode node from Topology/ID: its neighbors
// and the Metropolis weight row, or the supplied WRow sized for the
// topology (the engine checks its sum and support). The epoch stays 0.
func staticPlan(cfg PeerConfig) (*controlplane.Plan, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("snap: peer config requires a topology")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Topology.N() {
		return nil, fmt.Errorf("snap: peer id %d out of range for %d-node topology", cfg.ID, cfg.Topology.N())
	}
	row := Vector(cfg.WRow)
	if row == nil {
		row = weights.Metropolis(cfg.Topology, 0).Row(cfg.ID)
	} else if len(row) != cfg.Topology.N() {
		return nil, fmt.Errorf("snap: weight row has %d entries for a %d-node topology", len(row), cfg.Topology.N())
	}
	return &controlplane.Plan{WRow: row, Neighbors: cfg.Topology.Neighbors(cfg.ID)}, nil
}

// joinCluster implements the elastic join: it binds the data-plane
// listener, joins through the coordinator, and returns the node's plan in
// the current epoch. On error nothing is left open.
func joinCluster(cfg PeerConfig) (net.Listener, *controlplane.Client, *controlplane.Plan, error) {
	listenAddr := cfg.ListenAddr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("snap: bind data-plane listener: %w", err)
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	client, err := controlplane.Join(controlplane.ClientConfig{
		Coordinator: cfg.CoordinatorAddr,
		Advertise:   advertise,
		JoinWait:    cfg.JoinWait,
		Logf:        cfg.Logf,
	})
	if err != nil {
		ln.Close()
		return nil, nil, nil, err
	}
	plan, err := client.Latest().PlanFor(client.ID())
	if err != nil {
		client.Close()
		ln.Close()
		return nil, nil, nil, err
	}
	return ln, client, plan, nil
}
