package core

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/controlplane"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
)

// PeerNodeConfig configures one real TCP edge server (the paper's testbed
// mode: each node is a process exchanging frames over sockets).
type PeerNodeConfig struct {
	// Engine configures the local EXTRA engine. Engine.Neighbors must
	// match the keys of the address map passed to Connect. The engine's repair knobs
	// (RefreshEvery, FullSendRound0, RestartEvery) apply to the TCP path
	// exactly as to the simulator and are what make selective
	// transmission safe on flaky links.
	Engine EngineConfig
	// ListenAddr is this node's TCP listen address (e.g. "127.0.0.1:0").
	ListenAddr string
	// Listener, when set, supplies an already-bound data-plane listener and
	// ListenAddr is ignored. Elastic nodes need it: the coordinator join
	// handshake advertises the data-plane address, so the socket must be
	// bound before the node id (and hence the engine) exists.
	Listener net.Listener
	// Control, when set, attaches the node to a cluster coordinator. A
	// newer epoch applies at the next round boundary after it arrives:
	// links are dropped and dialed, and the engine moves to the new plan
	// edge by edge (Engine.Reconfigure). Every edge of the initial
	// configuration is new as well: the engine starts alone and takes
	// each neighbor's weight when frames carrying Epoch flow both ways.
	Control *controlplane.Client
	// Epoch is the id of the epoch the initial Engine configuration was
	// derived from (0 for a static cluster); only strictly newer epochs are
	// applied. In elastic mode an Epoch above 1 marks a node admitted
	// mid-training: Run starts it at the round of the first data frame
	// its neighbors send it. Members of the founding epoch start at 0.
	Epoch int
	// RoundTimeout bounds how long a round waits for straggler neighbors
	// before proceeding with whatever arrived (default 5s).
	RoundTimeout time.Duration
	// ConnectTimeout bounds cluster formation (default 10s).
	ConnectTimeout time.Duration
	// Logf, when set, receives diagnostic messages about tolerated faults
	// (failed sends, reconnects). Nil discards them.
	Logf func(format string, args ...any)
	// Faults, when set, injects deterministic transport failures (drop,
	// delay, reset at a given round) — for testing fault tolerance
	// without real network flakiness.
	Faults *transport.FaultSet
	// Obs, when set, receives the node's metrics (per-link byte/frame
	// counters, gather-wait and round-phase histograms, APE gauges) and
	// its JSONL round-lifecycle event stream. Serve it with obs.NewHandler
	// to scrape the node mid-training. Nil disables observation.
	Obs *obs.Observer
	// Tracer, when set, records per-round spans (build/encode/broadcast/
	// gather/decode/integrate plus the engine's grad/mix sub-spans), stamps
	// a trace context onto every outgoing frame, links received frames back
	// to the senders' timelines, and — in elastic mode — pushes completed
	// round digests to the coordinator on heartbeats. Nil disables tracing
	// at zero cost.
	Tracer *trace.Tracer
	// Feed, when set, receives a snapshot of the model parameters at the
	// end of every round (stamped with the round and current epoch) —
	// the publication hook the serving plane's hot-swap feed hangs off.
	// Publish runs synchronously in the round loop and copies the
	// iterate, so implementations must be cheap (serve.Feed is one
	// memcpy plus a pointer swap). Nil disables publication.
	Feed ParamSink
}

// PeerNode runs a SNAP engine over a real TCP transport. Synchronization
// follows the paper's RIP-like model: every round the node broadcasts its
// selected parameters, then waits (bounded by RoundTimeout) for the
// round's frame from each currently connected neighbor; missing neighbors
// are treated as stragglers and their last-known parameters are reused.
//
// The node is fault tolerant end to end: a single failed send is logged
// and tolerated (the receiver already handles the missing frame as a
// straggler), dead links are evicted so later rounds do not wait for
// them, the transport reconnects with backoff, and after a reconnect the
// node broadcasts its complete parameter vector once — EXTRA's
// correction s sums a silently stale neighbor view into a permanent
// bias, so the refresh is required for re-convergence, not merely nice
// to have.
type PeerNode struct {
	cfg    PeerNodeConfig
	engine *Engine
	peer   *transport.Peer

	// epoch is the id of the last applied cluster epoch (elastic mode).
	// Written by the round loop in maybeReconfigure and read by Epoch()
	// from any goroutine, so it is atomic.
	epoch atomic.Int64
	// ignored is the id of the newest epoch found not to include this
	// node, so the round loop reports it once, not every round.
	ignored int

	// needRefresh is set by the transport's reconnect callback and
	// consumed at the top of the next round: the node sends its full
	// parameter vector so the reconnected neighbor's stale view heals.
	needRefresh atomic.Bool
	refreshes   atomic.Int64

	// round is the node's round body (round.go); Run places the gradient
	// around it.
	round *nodeRound

	// gradCmd drives the persistent gradient worker behind the pipelined
	// round (DESIGN.md §14): persistent because a `go func` closure per
	// round would allocate on the hot path. Run sends the round number,
	// the worker runs the gradient and signals grad.done; sends and
	// receives are strictly paired, which is the happens-before edge that
	// makes the engine's gradient scratch safe.
	gradCmd  chan int
	gradStop sync.Once
	grad     gradJoin

	met roundMetrics
}

// roundMetrics caches the round-driver metric handles: one histogram per
// pipeline phase (the round latency breakdown), whole-round latency, and
// the fault/refresh counters mirrored into the registry.
type roundMetrics struct {
	phase                            [trace.NumPhases]*obs.Histogram
	roundSeconds, overlapSeconds     *obs.Histogram
	round, roundBytes, localLoss     *obs.Gauge
	streamDepth                      *obs.Gauge
	streamFrames                     *obs.Counter
	sendFailures, corrupt, refreshes *obs.Counter
	epoch                            *obs.Gauge
	epochsApplied                    *obs.Counter
	reconfigSeconds                  *obs.Histogram
}

func newRoundMetrics(o *obs.Observer) roundMetrics {
	m := roundMetrics{
		roundSeconds:   o.Histogram(obs.MRoundSeconds, obs.TimeBuckets),
		overlapSeconds: o.Histogram(obs.MOverlapSeconds, obs.TimeBuckets),
		streamDepth:    o.Gauge(obs.MStreamDepth),
		streamFrames:   o.Counter(obs.MStreamFrames),
		round:          o.Gauge(obs.MRound),
		roundBytes:     o.Gauge(obs.MRoundBytes),
		localLoss:      o.Gauge(obs.MLocalLoss),
		sendFailures:   o.Counter(obs.MSendFailures),
		corrupt:        o.Counter(obs.MCorruptFrames),
		refreshes:      o.Counter(obs.MRefreshes),

		epoch:           o.Gauge(obs.MEpoch),
		epochsApplied:   o.Counter(obs.MEpochsApplied),
		reconfigSeconds: o.Histogram(obs.MReconfigSeconds, obs.TimeBuckets),
	}
	for p := range m.phase {
		m.phase[p] = o.Histogram(obs.Label(obs.MPhaseSeconds, obs.LPhase, trace.PhaseID(p).Name()), obs.TimeBuckets)
	}
	return m
}

// NewPeerNode builds the engine and starts listening. Call Connect before
// Run.
func NewPeerNode(cfg PeerNodeConfig) (*PeerNode, error) {
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 5 * time.Second
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 10 * time.Second
	}
	cfg.Engine.Obs = cfg.Obs
	cfg.Engine.Trace = cfg.Tracer
	ecfg := cfg.Engine
	if cfg.Control != nil {
		ecfg.WRow = make([]float64, ecfg.ID+1)
		ecfg.WRow[ecfg.ID], ecfg.Neighbors = 1, nil
	}
	eng, err := NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	if cfg.Control != nil {
		if err := eng.Reconfigure(cfg.Epoch, cfg.Engine.WRow, cfg.Engine.Neighbors); err != nil {
			return nil, err
		}
	}
	var peer *transport.Peer
	if cfg.Listener != nil {
		peer = transport.NewPeerFromListener(cfg.Engine.ID, cfg.Listener)
	} else {
		peer, err = transport.NewPeer(cfg.Engine.ID, cfg.ListenAddr)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Obs != nil {
		peer.SetObserver(cfg.Obs)
	}
	if cfg.Tracer != nil {
		peer.SetTracer(cfg.Tracer)
		if cfg.Control != nil {
			cfg.Control.SetTracer(cfg.Tracer)
		}
	}
	pn := &PeerNode{cfg: cfg, engine: eng, peer: peer, met: newRoundMetrics(cfg.Obs)}
	pn.round = newNodeRound(eng, tcpLink{peer: peer, timeout: cfg.RoundTimeout}, &pn.met, pn.logf)
	pn.round.grad = &pn.grad
	pn.epoch.Store(int64(cfg.Epoch))
	pn.met.epoch.Set(float64(cfg.Epoch))
	peer.SetReconnectHandler(func(nid int) {
		pn.needRefresh.Store(true)
		pn.logf("node %d: link to %d reconnected; scheduling full-parameter refresh", cfg.Engine.ID, nid)
	})
	if cfg.Faults != nil {
		peer.SetFaults(cfg.Faults)
	}
	pn.gradCmd = make(chan int)
	pn.grad.done = make(chan struct{}, 1)
	go pn.gradWorker()
	return pn, nil
}

// gradWorker is the persistent gradient goroutine behind the pipelined
// round loop: it runs Engine.ComputeGradient for each round the loop
// hands it, concurrently with that round's broadcast and gather. It
// exits when Close closes gradCmd (ranging over the channel is the
// cancellation).
func (pn *PeerNode) gradWorker() {
	for round := range pn.gradCmd {
		pn.engine.ComputeGradient(round)
		pn.grad.finished = pn.round.now()
		pn.grad.running.Store(false)
		pn.grad.done <- struct{}{}
	}
}

func (pn *PeerNode) logf(format string, args ...any) {
	if pn.cfg.Logf != nil {
		pn.cfg.Logf(format, args...)
	}
}

// Addr returns the node's actual listen address (useful with port 0).
func (pn *PeerNode) Addr() string { return pn.peer.Addr() }

// Engine exposes the local engine (for evaluation after training).
func (pn *PeerNode) Engine() *Engine { return pn.engine }

// BytesSent reports the payload bytes this node wrote to its sockets —
// the testbed measurement the paper reports in Fig. 4.
func (pn *PeerNode) BytesSent() int64 { return pn.peer.BytesSent() }

// FramesSent reports how many data-plane frames this node has written.
func (pn *PeerNode) FramesSent() int64 { return pn.peer.FramesSent() }

// Tracer returns the node's round tracer (nil when tracing is off).
func (pn *PeerNode) Tracer() *trace.Tracer { return pn.cfg.Tracer }

// SendFailures reports how many broadcasts hit at least one failed
// neighbor link (each was tolerated, not fatal).
func (pn *PeerNode) SendFailures() int64 { return pn.round.failedSends.Load() }

// Refreshes reports how many reconnect-triggered full-parameter
// broadcasts this node has performed.
func (pn *PeerNode) Refreshes() int64 { return pn.refreshes.Load() }

// LinkStats returns per-neighbor connect/disconnect/reconnect counters
// from the transport.
func (pn *PeerNode) LinkStats() map[int]transport.LinkStats { return pn.peer.Stats() }

// Healthy reports whether the link to neighbor nid is currently up.
func (pn *PeerNode) Healthy(nid int) bool { return pn.peer.Healthy(nid) }

// Connect establishes connections to the given neighbors (node id →
// listen address). It is a separate step from construction so clusters on
// ephemeral ports can start all listeners first and exchange addresses
// afterwards.
func (pn *PeerNode) Connect(neighborAddrs map[int]string) error {
	return pn.peer.Connect(neighborAddrs, pn.cfg.ConnectTimeout)
}

// Run executes rounds [start, rounds) and returns the per-iteration
// trace (loss is this node's local objective at the iterate the round
// started from — the by-product of the round's gradient pass, see
// Engine.GradientLoss; global metrics are the caller's concern since no
// single node sees the whole cluster). rounds
// is the cluster-wide round horizon, not a count: start is 0, except
// for a node admitted mid-training (see PeerNodeConfig.Epoch), which
// starts at the round of the first data frame its neighbors send it —
// with start 20 and rounds = 40 it executes 20 rounds.
//
// Per the paper's straggler semantics a failed neighbor link never aborts
// the node: the send error is recorded and the round proceeds; the
// receiver reuses the neighbor's last-known parameters. Only local errors
// (engine, codec) are fatal.
//
// In elastic mode (Control set) each round boundary first applies any
// newer epoch.
func (pn *PeerNode) Run(rounds int) (*metrics.Trace, error) {
	id := pn.engine.ID()
	result := &metrics.Trace{}
	tr, nr := pn.cfg.Tracer, pn.round
	startRound := 0
	if pn.cfg.Control != nil && pn.cfg.Epoch > 1 && len(pn.engine.nbrIDs) > 0 {
		// Admitted mid-training: the cluster's round is whatever its
		// frames say. No frame within ConnectTimeout means no neighbor
		// is training yet.
		if r, ok := pn.peer.FirstRound(pn.cfg.ConnectTimeout); ok {
			startRound = r
		} else {
			pn.logf("node %d: no data frame from a neighbor within %v; starting at round 0", id, pn.cfg.ConnectTimeout)
		}
	}
	for round := startRound; round < rounds; round++ {
		if err := pn.maybeReconfigure(round); err != nil {
			return result, err
		}
		roundStart := nr.now()
		bytesBefore := pn.peer.BytesSent()
		pn.met.round.Set(float64(round))
		tr.StartRound(round, roundStart)
		pn.cfg.Obs.Emit(id, obs.EvRoundStart, round, -1, nil)

		if pn.needRefresh.Swap(false) {
			pn.engine.RequestFullSend()
			pn.refreshes.Add(1)
			pn.met.refreshes.Inc()
		}

		// Kick the gradient worker before even building the outgoing
		// update: ComputeGradient reads only the iterate and local data,
		// state disjoint from everything build/encode/broadcast/ingest
		// touch (DESIGN.md §14), so the whole comms window can hide
		// behind it. Every kick is paired with exactly one grad.done
		// receive — here if send fails, else inside receive — before
		// StepMix or the next round's kick.
		pn.grad.running.Store(true)
		pn.gradCmd <- round
		if err := nr.send(round); err != nil {
			<-pn.grad.done
			return result, err
		}
		iter, err := nr.receive(round)
		if err != nil {
			return result, err
		}
		if pn.cfg.Feed != nil {
			// Same-goroutine read of the live iterate is safe here: the
			// engine does not touch it again until the next StepMix, and
			// Publish copies before returning.
			pn.cfg.Feed.Publish(round, int(pn.epoch.Load()), iter)
		}
		pn.peer.ForgetRound(round)

		loss := pn.engine.GradientLoss()
		roundBytes := pn.peer.BytesSent() - bytesBefore
		roundEnd := nr.now()
		roundSec := roundEnd.Sub(roundStart).Seconds()
		pn.met.localLoss.Set(loss)
		pn.met.roundBytes.Set(float64(roundBytes))
		pn.met.roundSeconds.Observe(roundSec)
		tr.EndRound(round, roundEnd)
		if pn.cfg.Obs.LogEnabled() {
			f := obs.GetFields()
			f["seconds"] = roundSec
			f["loss"] = loss
			f["bytes"] = roundBytes
			pn.cfg.Obs.Emit(id, obs.EvRoundEnd, round, -1, f)
			obs.PutFields(f)
		}

		result.Append(metrics.IterationStat{
			Round: round,
			Loss:  loss,
			// No test set is evaluated on the testbed path; NaN is the
			// documented "not evaluated" marker, so no reader of the
			// trace mistakes these rounds for a 0% measurement.
			Accuracy: math.NaN(),
			// The socket-byte delta of this round, so testbed traces
			// support the simulator's cost-to-accuracy analysis. (Raw
			// bytes: a real deployment does not know physical hop counts.)
			RoundCost: float64(roundBytes),
		})
	}
	return result, nil
}

// Epoch returns the id of the cluster epoch this node last applied (its
// initial epoch until a reconfiguration happens).
func (pn *PeerNode) Epoch() int { return int(pn.epoch.Load()) }

// maybeReconfigure applies the newest coordinator epoch, if one arrived
// since the last round boundary: removed links are dropped, added links
// dialed, and the engine moved to the new plan (Engine.Reconfigure).
// Once every edge has switched, the node is indistinguishable from a
// static-cluster one.
func (pn *PeerNode) maybeReconfigure(round int) error {
	if pn.cfg.Control == nil {
		return nil
	}
	id := pn.engine.ID()
	ep := pn.cfg.Control.Latest()
	if ep.ID <= int(pn.epoch.Load()) || ep.ID == pn.ignored {
		return nil
	}
	plan, err := ep.PlanFor(id)
	if err != nil {
		// The newest epoch excludes this node (evicted after a control-
		// plane outage) or is malformed. Keep training on the current
		// configuration: former neighbors have dropped us, so gathers run
		// on straggler semantics until the caller notices and exits.
		pn.ignored = ep.ID
		pn.logf("node %d: ignoring epoch %d: %v", id, ep.ID, err)
		return nil
	}
	start := pn.round.now()
	oldSet := make(map[int]bool)
	for _, nid := range pn.engine.Neighbors() {
		oldSet[nid] = true
	}
	newSet := make(map[int]bool, len(plan.Neighbors))
	dial := make(map[int]string)
	for _, nid := range plan.Neighbors {
		newSet[nid] = true
		if !oldSet[nid] {
			dial[nid] = plan.Addrs[nid]
		}
	}
	for nid := range oldSet {
		if !newSet[nid] {
			pn.peer.Drop(nid)
		}
	}
	if len(dial) > 0 {
		if err := pn.peer.Connect(dial, pn.cfg.ConnectTimeout); err != nil {
			// A peer that cannot be reached yet is a straggler, not a
			// fatal error: its address is registered, so the transport
			// keeps reconnecting in the background.
			if pn.cfg.Obs.LogEnabled() {
				f := obs.GetFields()
				f["kind"] = "reconfig_connect"
				f["error"] = err.Error()
				pn.cfg.Obs.Emit(id, obs.EvFault, round, -1, f)
				obs.PutFields(f)
			}
			pn.logf("node %d: epoch %d: connecting new links: %v (continuing)", id, plan.Epoch, err)
		}
	}
	if err := pn.engine.Reconfigure(plan.Epoch, plan.WRow, plan.Neighbors); err != nil {
		return err
	}
	pn.epoch.Store(int64(plan.Epoch))
	pn.met.epoch.Set(float64(plan.Epoch))
	pn.met.epochsApplied.Inc()
	// The switch is timed on the round's clock, which runs only when
	// someone consumes the timings; unobserved, there is no duration.
	sec, took := 0.0, ""
	if pn.engine.timed() {
		sec = pn.round.now().Sub(start).Seconds()
		pn.met.reconfigSeconds.Observe(sec)
		took = fmt.Sprintf(", %.1fms", sec*1000)
	}
	if pn.cfg.Obs.LogEnabled() { // an event log implies an Observer, so the clock is on
		f := obs.GetFields()
		f["epoch"] = plan.Epoch
		f["neighbors"] = len(plan.Neighbors)
		f["seconds"] = sec
		pn.cfg.Obs.Emit(id, obs.EvEpochApplied, round, -1, f)
		obs.PutFields(f)
	}
	pn.logf("node %d: applied epoch %d at round %d (%d neighbors%s)",
		id, plan.Epoch, round, len(plan.Neighbors), took)
	return nil
}

// Leave gracefully leaves an elastic cluster: the coordinator removes the
// node and publishes a shrunk epoch — unless the departure would
// disconnect the remaining topology, in which case an error is returned
// and the node remains a member.
func (pn *PeerNode) Leave(timeout time.Duration) error {
	if pn.cfg.Control == nil {
		return fmt.Errorf("core: node %d is not attached to a coordinator", pn.engine.ID())
	}
	return pn.cfg.Control.Leave(timeout)
}

// Close shuts down the control-plane client (if any), the gradient
// worker, and the transport, returning the first error from the former
// two. Close must not race the node's own Run: finish (or abandon) the
// round loop first, as every test and the snappeer binary do.
func (pn *PeerNode) Close() error {
	pn.gradStop.Do(func() { close(pn.gradCmd) })
	var cerr error
	if pn.cfg.Control != nil {
		cerr = pn.cfg.Control.Close()
	}
	perr := pn.peer.Close()
	if cerr != nil {
		return cerr
	}
	return perr
}
