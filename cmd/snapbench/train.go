package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/snapml/snap/internal/baseline"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
)

// roundTimeout is the one non-default knob: a stalled neighbor costs
// wall-clock instead of silently changing the arithmetic.
const roundTimeout = 30 * time.Second

// consensusTol bounds max_i ‖x_i − x̄‖∞ at the horizon of a full-size run.
const consensusTol = 1e-3

// snapSink captures one node's iterates from outside the round loop. On
// TCP it is the PeerNodeConfig.Feed; on the simulator OnIteration drives
// it. It copies into a slab allocated before the run starts.
type snapSink struct {
	every int
	p     int
	base  time.Time
	slab  []float64       // (rounds/every) snapshots of p values
	done  []time.Duration // per round: time the node finished it, since base
}

func newSnapSink(rounds, every, p int) *snapSink {
	return &snapSink{every: every, p: p, slab: make([]float64, rounds/every*p), done: make([]time.Duration, rounds)}
}

// mark stamps round as finished and returns the slab slot its snapshot
// belongs in, or nil when the round is not a snapshot round.
func (s *snapSink) mark(round int) linalg.Vector {
	s.done[round] = time.Since(s.base)
	if (round+1)%s.every != 0 {
		return nil
	}
	return s.snap((round+1)/s.every - 1)
}

// Publish implements core.ParamSink.
func (s *snapSink) Publish(round, _ int, params linalg.Vector) {
	if dst := s.mark(round); dst != nil {
		copy(dst, params)
	}
}

func (s *snapSink) snapshots() int           { return len(s.slab) / s.p }
func (s *snapSink) snap(i int) linalg.Vector { return s.slab[i*s.p : (i+1)*s.p] }

// snapRound is the round index snapshot i was taken after.
func (s *snapSink) snapRound(i int) int { return (i+1)*s.every - 1 }

// repRun is what one training of one instance produced, before the
// off-the-clock evaluation.
type repRun struct {
	setup   time.Duration
	wall    time.Duration  // Run start → every node returned
	sinks   []*snapSink    // per node
	costs   [][]float64    // per node, per round: socket (or ledger) bytes
	final   [][]float64    // per node final iterate
	hash    uint64         // FNV-64 over every snapshot of every node
	mallocs uint64         // heap allocations during Run (when asked for)
	w       *linalg.Matrix // the weight matrix the run mixed with
}

// instrumentation optionally attaches the system's own Observer and
// Tracer to a production run (used only for obs.overhead_frac).
type instrumentation struct {
	on      bool
	mallocs bool // count heap allocations made during the Run phase
}

// countMallocs brackets the measured phase with MemStats reads (only
// when enabled: the reads stop the world, so they also sit outside the
// timed window) and returns the function that closes the bracket.
func countMallocs(enabled bool) (stop func() uint64) {
	if !enabled {
		return func() uint64 { return 0 }
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() uint64 {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
}

func (it instrumentation) forNode(id int) (*obs.Observer, *trace.Tracer) {
	if !it.on {
		return nil, nil
	}
	return &obs.Observer{Reg: obs.NewRegistry()}, trace.New(trace.Config{Node: id})
}

// runRep trains one instance with the production driver at shipped
// defaults and returns the raw capture.
func (p *problem) runRep(in *instance, rounds int, it instrumentation) (*repRun, error) {
	if p.spec.Transport == "sim" {
		return p.runSimRep(in, rounds, it)
	}
	return p.runTCPRep(in, rounds, it)
}

func delayFaults(in *instance, node, rounds int, d time.Duration) *transport.FaultSet {
	if d <= 0 {
		return nil
	}
	fs := transport.NewFaultSet()
	for _, j := range in.g.Neighbors(node) {
		for r := 0; r < rounds; r++ {
			fs.Add(transport.FaultRule{Peer: j, Round: r, Action: transport.FaultDelay, Delay: d})
		}
	}
	return fs
}

// connectAll dials every node's neighbors concurrently (each side of a
// link waits for the other, so it cannot be done one node at a time).
func connectAll(n int, neighbors func(i int) []int, addr func(i int) string, connect func(i int, addrs map[int]string) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrs := make(map[int]string)
			for _, j := range neighbors(i) {
				addrs[j] = addr(j)
			}
			errs[i] = connect(i, addrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("connect node %d: %w", i, err)
		}
	}
	return nil
}

func (p *problem) runTCPRep(in *instance, rounds int, it instrumentation) (*repRun, error) {
	n := p.spec.Nodes
	setupStart := time.Now()
	run := &repRun{sinks: make([]*snapSink, n), costs: make([][]float64, n), final: make([][]float64, n)}
	nodes := make([]*core.PeerNode, n)
	defer func() {
		for _, pn := range nodes {
			if pn != nil {
				pn.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		run.sinks[i] = newSnapSink(rounds, p.spec.SnapEvery, p.model.NumParams())
		o, tr := it.forNode(i)
		pn, err := core.NewPeerNode(core.PeerNodeConfig{
			Engine: core.EngineConfig{
				ID: i, Model: p.model, Data: in.parts[i], Alpha: p.spec.Alpha,
				WRow: in.w.Row(i), Neighbors: in.g.Neighbors(i),
				Policy: core.SendSelected, Init: in.init,
			},
			ListenAddr:   "127.0.0.1:0",
			RoundTimeout: roundTimeout,
			Feed:         run.sinks[i],
			Faults:       delayFaults(in, i, rounds, p.spec.Delay),
			Obs:          o,
			Tracer:       tr,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = pn
	}
	err := connectAll(n, in.g.Neighbors, func(i int) string { return nodes[i].Addr() },
		func(i int, addrs map[int]string) error { return nodes[i].Connect(addrs) })
	if err != nil {
		return nil, err
	}
	run.setup = time.Since(setupStart)

	errs := make([]error, n)
	traces := make([]*metrics.Trace, n)
	var wg sync.WaitGroup
	runtime.GC() // every rep starts from a collected heap, outside the clock
	mallocs := countMallocs(it.mallocs)
	start := time.Now()
	for i := range nodes {
		run.sinks[i].base = start
	}
	for i, pn := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if traces[i], errs[i] = pn.Run(rounds); errs[i] != nil {
				// Drop the links now, or the neighbors wait out RoundTimeout
				// for this node in every remaining round.
				pn.Close()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.mallocs = mallocs()
	for i, pn := range nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("node %d: %w", i, errs[i])
		}
		run.costs[i] = make([]float64, rounds)
		for _, st := range traces[i].Stats {
			run.costs[i][st.Round] = st.RoundCost
		}
		run.final[i] = pn.Engine().Params()
	}
	run.hash = hashSinks(run.sinks)
	return run, nil
}

func (p *problem) runSimRep(in *instance, rounds int, it instrumentation) (*repRun, error) {
	n := p.spec.Nodes
	setupStart := time.Now()
	run := &repRun{sinks: make([]*snapSink, n), costs: make([][]float64, 1), final: make([][]float64, n)}
	for i := range run.sinks {
		run.sinks[i] = newSnapSink(rounds, p.spec.SnapEvery, p.model.NumParams())
	}
	o, _ := it.forNode(-1)
	c, err := core.NewCluster(core.ClusterConfig{
		Topology: in.g, Model: p.model, Partitions: in.parts, Alpha: p.spec.Alpha,
		Policy: core.SendSelected, OptimizeWeights: p.spec.OptimizeW, Weights: in.w,
		MaxIterations: rounds,
		// A fixed horizon: the stopping rule must not end the run early.
		Convergence: metrics.ConvergenceDetector{Patience: rounds + 1},
		Seed:        in.initSeed, // NewCluster derives the shared initial iterate from it
		Obs:         o,
		OnIteration: func(round int, c *core.Cluster) {
			for i, e := range c.Engines() {
				if dst := run.sinks[i].mark(round); dst != nil {
					e.ParamsInto(dst)
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	run.setup = time.Since(setupStart)

	runtime.GC() // every rep starts from a collected heap, outside the clock
	mallocs := countMallocs(it.mallocs)
	start := time.Now()
	for _, s := range run.sinks {
		s.base = start
	}
	res, err := c.Run()
	run.wall = time.Since(start)
	run.mallocs = mallocs()
	if err != nil {
		return nil, err
	}
	if res.Iterations != rounds {
		return nil, fmt.Errorf("simulated run stopped after %d of %d rounds", res.Iterations, rounds)
	}
	run.costs[0] = make([]float64, rounds)
	for _, st := range res.Trace.Stats {
		run.costs[0][st.Round] = st.RoundCost
	}
	for i, e := range c.Engines() {
		run.final[i] = e.Params()
	}
	run.w = c.WeightMatrix()
	run.hash = hashSinks(run.sinks)
	return run, nil
}

func hashSinks(sinks []*snapSink) uint64 {
	slabs := make([][]float64, len(sinks))
	for i, s := range sinks {
		slabs[i] = s.slab
	}
	return hashVectors(slabs)
}

func hashVectors(vs [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// repEval is the off-the-clock judgement of one repRun.
type repEval struct {
	roundsToEps int     // rounds executed up to and including r_eps
	bytesToEps  float64 // Σ_nodes Σ_{r ≤ r_eps} bytes
	l0, target  float64
	finalLoss   float64
	consensus   float64
	failure     string // empty when every check passed
}

// reference solves the pooled problem on a single worker; its final loss
// is L_ref. It runs off the clock: the measured phase does not need it.
func (p *problem) reference() (float64, time.Duration, error) {
	if p.spec.RefIters == 0 {
		return 0, 0, nil
	}
	start := time.Now()
	res, err := baseline.RunCentralized(baseline.CentralizedConfig{
		Model: p.model, Partitions: []*dataset.Dataset{p.pooled}, Alpha: p.spec.Alpha,
		MaxIterations: p.spec.RefIters,
		Convergence:   metrics.ConvergenceDetector{Patience: p.spec.RefIters + 1},
		Seed:          p.seed,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.FinalLoss, time.Since(start), nil
}

// meanSnapshot writes the cluster-mean iterate of snapshot i into dst.
func meanSnapshot(dst linalg.Vector, sinks []*snapSink, i int) linalg.Vector {
	dst.Fill(0)
	for _, s := range sinks {
		dst.AddInPlace(s.snap(i))
	}
	return linalg.ScaleTo(dst, 1/float64(len(sinks)), dst)
}

// evaluate computes the global loss from the captured snapshots (never
// from the system's own loss telemetry) and derives r_eps: the first
// snapshot round from which the loss stays at or below target through
// the horizon, found by scanning backward from R.
func (p *problem) evaluate(in *instance, run *repRun, lref float64) *repEval {
	ev := &repEval{}
	ev.l0 = model.MeanLoss(p.model, in.init, p.pooled)
	ev.target = lref + p.spec.Tau*(ev.l0-lref)
	mean := linalg.NewVector(p.model.NumParams())
	last := run.sinks[0].snapshots() - 1
	if last < 0 {
		ev.failure = "no snapshot captured"
		return ev
	}

	meanSnapshot(mean, run.sinks, last)
	ev.finalLoss = model.MeanLoss(p.model, mean, p.pooled)
	for _, s := range run.sinks {
		ev.consensus = math.Max(ev.consensus, linalg.DistInf(s.snap(last), mean))
	}
	tol := consensusTol
	if p.spec.Consensus > 0 {
		tol = p.spec.Consensus
	}
	switch {
	case math.IsNaN(ev.finalLoss) || ev.finalLoss > ev.target:
		ev.failure = fmt.Sprintf("loss %.6g above target %.6g at the horizon", ev.finalLoss, ev.target)
		return ev
	case ev.consensus > tol:
		ev.failure = fmt.Sprintf("consensus residual %.3g above %.0e", ev.consensus, tol)
		return ev
	}
	eps := last
	for i := last - 1; i >= 0; i-- {
		if loss := model.MeanLoss(p.model, meanSnapshot(mean, run.sinks, i), p.pooled); !(loss <= ev.target) {
			break
		}
		eps = i
	}
	rEps := run.sinks[0].snapRound(eps)
	ev.roundsToEps = rEps + 1
	for _, perNode := range run.costs {
		for r := 0; r <= rEps; r++ {
			ev.bytesToEps += perNode[r]
		}
	}
	return ev
}
