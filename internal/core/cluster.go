package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/transport"
	"github.com/snapml/snap/internal/weights"
)

// ClusterConfig configures a simulated SNAP training run.
type ClusterConfig struct {
	// Topology is the edge-server neighbor graph; it must be connected.
	Topology *graph.Graph
	// Model is the shared architecture.
	Model model.Model
	// Partitions holds each node's local data (len == Topology.N()).
	Partitions []*dataset.Dataset
	// Test is the evaluation set (may be nil to skip accuracy).
	Test *dataset.Dataset
	// Alpha is the EXTRA step size.
	Alpha float64
	// Policy selects SNAP / SNAP-0 / SNO transmission.
	Policy SendPolicy
	// DGD trains with classic decentralized gradient descent instead of
	// EXTRA (see EngineConfig.DGD); the result's Scheme is then "dgd".
	DGD bool
	// APE configures Algorithm 1 (Policy == SendSelected).
	APE APEConfig
	// OptimizeWeights enables the paper's weight-matrix optimization; when
	// false the Metropolis matrix (eq. 24) is used directly.
	OptimizeWeights bool
	// Weights, when non-nil, supplies a precomputed weight matrix and
	// bypasses both Metropolis construction and optimization (callers that
	// run several schemes on one topology reuse one optimized matrix).
	Weights *linalg.Matrix
	// WeightOpt tunes the optimizer (ignored unless OptimizeWeights).
	WeightOpt weights.Options
	// BatchSize limits per-iteration gradients (0 = full batch).
	BatchSize int
	// MaxIterations bounds the run. Default 500.
	MaxIterations int
	// Convergence configures the stopping rule; zero values use defaults.
	Convergence metrics.ConvergenceDetector
	// EvalEvery computes test accuracy every this many rounds (default 1;
	// set larger for expensive models).
	EvalEvery int
	// Seed derives the initial parameters.
	Seed int64
	// PerNodeInit gives every node its own random initial parameter
	// vector (derived from Seed and the node id) instead of a shared one,
	// as in a real uncoordinated deployment. Round 0 then performs a full
	// parameter exchange so the selective-diff protocol has a correct
	// baseline. EXTRA converges from arbitrary initial points, but the
	// initial disagreement makes network mixing a genuine bottleneck —
	// the regime the paper's topology-dependent results live in.
	PerNodeInit bool
	// FailureRate drops each link per round with this probability
	// (the Fig. 9 straggler experiments).
	FailureRate float64
	// RefreshEvery forces a full-parameter broadcast every that many
	// rounds (see EngineConfig.RefreshEvery). When zero and FailureRate
	// is positive it defaults to 10 — selective transmission over lossy
	// links requires periodic refresh to repair silently dropped frames.
	RefreshEvery int
	// Float32Wire transmits parameter values as float32 on the wire
	// (codec formats 3/4), halving value bytes at ~1e-7 relative rounding
	// — far below any APE threshold. An extension beyond the paper;
	// compare with BenchmarkAblationFloat32Wire.
	Float32Wire bool
	// RestartEvery resets the EXTRA correction s to zero every that many
	// rounds (see EngineConfig.RestartEvery). When zero and FailureRate is
	// positive it defaults to 4 × RefreshEvery, purging the staleness bias
	// that dropped frames leave in s.
	RestartEvery int
	// OnIteration, when set, is invoked after every round's compute phase
	// (before convergence is evaluated) with the just-finished round
	// index. The experiment harness uses it to record parameter-evolution
	// statistics (paper Fig. 2). It runs on the driver goroutine; engines
	// may be inspected but not mutated.
	OnIteration func(round int, c *Cluster)
	// Obs, when set, is shared by the driver and every engine: engine
	// series carry a node="<id>" label, while the round/phase histograms
	// aggregate across nodes (the useful simulator view). Round lifecycle
	// events are emitted with node -1 (cluster level).
	Obs *obs.Observer
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 500
	}
	if c.RefreshEvery == 0 && c.FailureRate > 0 {
		c.RefreshEvery = 10
	}
	if c.RestartEvery == 0 && c.FailureRate > 0 {
		// Four refresh periods: long enough for consensus to re-settle
		// after the restart kick (each restart perturbs node i by
		// α·∇f_i, which differs across nodes), short enough to bound the
		// staleness bias accumulating in the correction s.
		c.RestartEvery = 4 * c.RefreshEvery
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	return c
}

// Result summarizes a training run.
type Result struct {
	// Scheme names the scheme that produced this result.
	Scheme string
	// Iterations is the number of rounds executed (to convergence or the
	// iteration cap).
	Iterations int
	// Converged reports whether the stopping rule fired before the cap.
	Converged bool
	// FinalAccuracy is the test accuracy of the average model after the
	// last round (NaN if no test set).
	FinalAccuracy float64
	// FinalLoss is the aggregate objective Σ_i f_i(x_i) after the last
	// round.
	FinalLoss float64
	// TotalCost is the hop-weighted communication cost Σ hops×bytes.
	TotalCost float64
	// Trace holds the per-iteration history.
	Trace metrics.Trace
	// PerRoundCost is the hop-weighted cost of each round.
	PerRoundCost []float64
}

// Cluster drives N EXTRA engines over a simulated network in lockstep
// rounds, reproducing the paper's simulation setup.
type Cluster struct {
	cfg     ClusterConfig
	net     *transport.Sim
	engines []*Engine
	w       *linalg.Matrix
	met     roundMetrics

	// rounds holds each node's round body (round.go) over its place in
	// the simulated network; nil until startRunners.
	rounds []*nodeRound
	// The worker pool: min(GOMAXPROCS, N) persistent goroutines that run
	// one phase of every node per wake-up, pulling node indices from
	// next, so a phase costs two channel operations per worker instead
	// of two per node. phase, round and next are written by the driver
	// before it hands out the wake-ups; errs[i] is node i's result.
	wake, done   chan struct{}
	workers      int
	phase, round int
	next         atomic.Int64
	errs         []error

	avgScratch linalg.Vector // reusable mean-parameter buffer for eval
}

// startRunners builds the nodes' round bodies and starts the worker pool
// (idempotent).
func (c *Cluster) startRunners() {
	if c.rounds != nil {
		return
	}
	c.rounds = make([]*nodeRound, len(c.engines))
	for i, e := range c.engines {
		c.rounds[i] = newNodeRound(e, simLink{net: c.net, id: e.ID(), nbrs: c.net.Neighbors(e.ID())}, &c.met, nil)
	}
	c.errs = make([]error, len(c.engines))
	c.workers = min(runtime.GOMAXPROCS(0), len(c.engines))
	c.wake, c.done = make(chan struct{}), make(chan struct{})
	for w := 0; w < c.workers; w++ {
		go func() {
			for range c.wake {
				for i := int(c.next.Add(1)) - 1; i < len(c.rounds); i = int(c.next.Add(1)) - 1 {
					c.errs[i] = c.runNode(i)
				}
				c.done <- struct{}{}
			}
		}()
	}
}

// runNode executes node i's half of the current phase. The lockstep
// network delivers nothing until every node has sent, so the gradient —
// which a real transport overlaps with the in-flight gather (DESIGN.md
// §14) — is computed in the slot that wait leaves, after the send and
// before the barrier. It reads only the iterate, which neither half's
// ingest touches, so where it runs does not change a bit of any iterate.
func (c *Cluster) runNode(i int) error {
	nr := c.rounds[i]
	if c.phase == 1 {
		if err := nr.send(c.round); err != nil {
			return err
		}
		nr.eng.ComputeGradient(c.round)
		return nil
	}
	_, err := nr.receive(c.round)
	return err
}

// stopRunners terminates the worker pool.
func (c *Cluster) stopRunners() {
	if c.rounds != nil {
		close(c.wake)
		c.rounds = nil
	}
}

// runPhase executes one phase on every node, spread over the worker
// pool, and returns the error of the lowest-index node that failed (the
// other nodes still finish the phase — the barrier always drains).
func (c *Cluster) runPhase(phase, round int) error {
	c.phase, c.round = phase, round
	c.next.Store(0)
	for w := 0; w < c.workers; w++ {
		c.wake <- struct{}{}
	}
	for w := 0; w < c.workers; w++ {
		<-c.done
	}
	for _, err := range c.errs {
		if err != nil {
			clear(c.errs)
			return err
		}
	}
	return nil
}

// NewCluster validates the configuration, builds (and optionally
// optimizes) the weight matrix, and constructs all node engines.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Topology == nil || cfg.Topology.N() == 0 {
		return nil, errors.New("core: cluster requires a non-empty topology")
	}
	if !cfg.Topology.IsConnected() {
		return nil, errors.New("core: cluster topology must be connected")
	}
	n := cfg.Topology.N()
	if len(cfg.Partitions) != n {
		return nil, fmt.Errorf("core: %d partitions for %d nodes", len(cfg.Partitions), n)
	}
	if cfg.Model == nil {
		return nil, errors.New("core: cluster requires a model")
	}
	if cfg.Alpha <= 0 {
		return nil, errors.New("core: cluster requires positive Alpha")
	}

	var w *linalg.Matrix
	if cfg.Weights != nil {
		if cfg.Weights.Rows != n || cfg.Weights.Cols != n {
			return nil, fmt.Errorf("core: supplied weight matrix is %dx%d for %d nodes", cfg.Weights.Rows, cfg.Weights.Cols, n)
		}
		if !cfg.Weights.IsSymmetric(1e-9) || !cfg.Weights.IsDoublyStochastic(1e-6) {
			return nil, errors.New("core: supplied weight matrix must be symmetric doubly stochastic")
		}
		w = cfg.Weights
	} else if cfg.OptimizeWeights {
		res, err := weights.OptimizeBest(cfg.Topology, weights.BoundParams{Alpha: cfg.Alpha}, cfg.WeightOpt)
		if err != nil {
			return nil, fmt.Errorf("core: optimizing weight matrix: %w", err)
		}
		w = res.W
	} else {
		w = weights.Metropolis(cfg.Topology, 0)
	}

	net := transport.NewSim(cfg.Topology, nil)
	if cfg.FailureRate > 0 {
		net.SetFailures(cfg.FailureRate, cfg.Seed+1)
	}

	sharedInit := cfg.Model.InitParams(cfg.Seed)
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		init := sharedInit
		if cfg.PerNodeInit {
			init = cfg.Model.InitParams(cfg.Seed + int64(i+1)*1_000_003)
		}
		eng, err := NewEngine(EngineConfig{
			ID:             i,
			Model:          cfg.Model,
			Data:           cfg.Partitions[i],
			Alpha:          cfg.Alpha,
			WRow:           w.Row(i),
			Neighbors:      cfg.Topology.Neighbors(i),
			BatchSize:      cfg.BatchSize,
			DGD:            cfg.DGD,
			Policy:         cfg.Policy,
			APE:            cfg.APE,
			RefreshEvery:   cfg.RefreshEvery,
			RestartEvery:   cfg.RestartEvery,
			FullSendRound0: cfg.PerNodeInit,
			Float32Wire:    cfg.Float32Wire,
			Init:           init,
			Obs:            cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return &Cluster{cfg: cfg, net: net, engines: engines, w: w, met: newRoundMetrics(cfg.Obs)}, nil
}

// WeightMatrix returns the weight matrix in use (for inspection/tests).
func (c *Cluster) WeightMatrix() *linalg.Matrix { return c.w }

// Network returns the simulated network (for inspection/tests).
func (c *Cluster) Network() *transport.Sim { return c.net }

// Run executes rounds until convergence or the iteration cap and returns
// the result. It is not safe to call Run twice on the same Cluster.
func (c *Cluster) Run() (*Result, error) {
	cfg := c.cfg
	detector := cfg.Convergence
	scheme := cfg.Policy.String()
	if cfg.DGD {
		scheme = "dgd"
	}
	res := &Result{Scheme: scheme, FinalAccuracy: math.NaN()}

	c.startRunners()
	defer c.stopRunners()

	for round := 0; round < cfg.MaxIterations; round++ {
		stat, err := c.runRound(round)
		if err != nil {
			return nil, err
		}
		res.Trace.Append(stat)
		res.Iterations = round + 1
		if detector.Observe(stat.Loss, stat.Consensus) {
			res.Converged = true
			break
		}
	}

	if cfg.Test != nil {
		res.FinalAccuracy = model.Accuracy(cfg.Model, c.AverageParams(), cfg.Test)
	}
	res.FinalLoss = c.aggregateLoss()
	res.TotalCost = c.net.Ledger().Total()
	res.PerRoundCost = c.net.Ledger().PerRound()
	return res, nil
}

// runRound drives every node through one lockstep round and evaluates
// the result. The worker pool must be started.
func (c *Cluster) runRound(round int) (metrics.IterationStat, error) {
	cfg := c.cfg
	var roundStart time.Time
	if cfg.Obs != nil {
		roundStart = time.Now()
	}
	c.met.round.Set(float64(round))
	cfg.Obs.Emit(-1, obs.EvRoundStart, round, -1, nil)
	c.net.BeginRound(round)

	// Every node sends (and computes its gradient), then — once all
	// frames are in the network — every node receives and steps. Each
	// node reports its own phase durations; the shared histograms
	// aggregate them across nodes.
	if err := c.runPhase(1, round); err != nil {
		return metrics.IterationStat{}, err
	}
	if err := c.runPhase(2, round); err != nil {
		return metrics.IterationStat{}, err
	}

	if cfg.OnIteration != nil {
		cfg.OnIteration(round, c)
	}

	// Evaluate. The loss is the objective at the iterates the round
	// started from (each engine's gradient pass left it behind);
	// consensus and accuracy are measured on the new ones.
	stat := metrics.IterationStat{
		Round:     round,
		Loss:      c.roundLoss(),
		Accuracy:  math.NaN(),
		Consensus: c.consensusResidual(),
		RoundCost: c.net.Ledger().RoundCost(round),
	}
	if cfg.Test != nil && (round%cfg.EvalEvery == 0 || round == cfg.MaxIterations-1) {
		stat.Accuracy = model.Accuracy(cfg.Model, c.meanParamsInto(), cfg.Test)
	}

	c.met.localLoss.Set(stat.Loss)
	c.met.roundBytes.Set(stat.RoundCost)
	if cfg.Obs != nil {
		roundSec := time.Since(roundStart).Seconds()
		c.met.roundSeconds.Observe(roundSec)
		if cfg.Obs.LogEnabled() {
			f := obs.GetFields()
			f["seconds"] = roundSec
			f["loss"] = stat.Loss
			f["consensus"] = stat.Consensus
			f["cost"] = stat.RoundCost
			cfg.Obs.Emit(-1, obs.EvRoundEnd, round, -1, f)
			obs.PutFields(f)
		}
	}
	return stat, nil
}

// aggregateLoss returns Σ_i f_i(x_i), the paper's objective (1), at the
// current iterates: one forward pass over every partition.
func (c *Cluster) aggregateLoss() float64 {
	var total float64
	for _, e := range c.engines {
		total += e.LocalLoss()
	}
	return total
}

// roundLoss returns the same objective one step earlier, Σ_i f_i(x_i^k)
// at the iterates the last round's gradients were taken at, from the
// values those gradient passes computed anyway.
func (c *Cluster) roundLoss() float64 {
	var total float64
	for _, e := range c.engines {
		total += e.GradientLoss()
	}
	return total
}

// meanParamsInto computes the across-node mean parameter vector into the
// cluster's reusable eval buffer (engines' live iterates are read, not
// copied — safe between phases on the driver goroutine).
func (c *Cluster) meanParamsInto() linalg.Vector {
	if c.avgScratch == nil {
		c.avgScratch = linalg.NewVector(c.cfg.Model.NumParams())
	}
	avg := c.avgScratch
	avg.Fill(0)
	for _, e := range c.engines {
		avg.AddInPlace(e.x)
	}
	return linalg.ScaleTo(avg, 1/float64(len(c.engines)), avg)
}

// consensusResidual returns max_i ||x_i − x̄||∞, the disagreement metric
// used for the consensus constraint (3).
func (c *Cluster) consensusResidual() float64 {
	avg := c.meanParamsInto()
	var worst float64
	for _, e := range c.engines {
		if d := linalg.DistInf(e.x, avg); d > worst {
			worst = d
		}
	}
	return worst
}

// AverageParams returns the across-node mean parameter vector — the model
// the experiments evaluate accuracy on. The returned vector is a fresh
// copy the caller owns.
func (c *Cluster) AverageParams() linalg.Vector {
	return c.meanParamsInto().Clone()
}

// Engines exposes the node engines (read-only use in tests/experiments).
func (c *Cluster) Engines() []*Engine { return c.engines }
