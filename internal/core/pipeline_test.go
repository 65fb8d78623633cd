package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
	"github.com/snapml/snap/internal/weights"
)

// runSequential drives pn through rounds [0, rounds) on the sequential
// schedule — send, gather and ingest everything, only then compute the
// gradient and step — composed of the same halves PeerNode.Run pipelines.
// It is the reference the pipelined loop is pinned to bit for bit, and
// the slow arm of BenchmarkExtraRoundDelayed.
func runSequential(pn *PeerNode, rounds int) error {
	for round := 0; round < rounds; round++ {
		if err := pn.round.send(round); err != nil {
			return err
		}
		if err := pn.round.ingest(round); err != nil {
			return err
		}
		pn.engine.ComputeGradient(round)
		pn.engine.StepMix(round)
		pn.peer.ForgetRound(round)
	}
	return nil
}

// Integrate and Step are the batch forms of IngestFrame and
// ComputeGradient + StepMix that the engine-level tests are written
// against.
func (e *Engine) Integrate(updates []*codec.Update) error {
	for _, u := range updates {
		if err := e.IngestFrame(u); err != nil {
			return err
		}
	}
	return nil
}

// Step returns StepMix's live iterate: read-only, valid until the next
// Step.
func (e *Engine) Step(round int) linalg.Vector {
	e.ComputeGradient(round)
	return e.StepMix(round)
}

// runPipelineCluster trains a 5-node complete-graph TCP cluster for the
// given number of rounds on the pipelined or the sequential schedule and
// returns every node's final iterate. Loopback with no faults means every
// frame lands inside the (generous) round timeout, so the run is a pure
// function of the fixed data/init seeds in startPeerNodes.
func runPipelineCluster(t *testing.T, sequential bool, rounds int) [][]float64 {
	t.Helper()
	nodes := startPeerNodes(t, 5, 30*time.Second, nil)
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			if sequential {
				errs[i] = runSequential(pn, rounds)
			} else {
				_, errs[i] = pn.Run(rounds)
			}
		}(i, pn)
	}
	wg.Wait()
	params := make([][]float64, len(nodes))
	for i, pn := range nodes {
		if errs[i] != nil {
			t.Fatalf("node %d (sequential=%v): %v", i, sequential, errs[i])
		}
		params[i] = pn.Engine().Params()
	}
	return params
}

// TestPipelinedMatchesSequentialTCP is the determinism contract of
// DESIGN.md §14: overlapping the gradient with broadcast+gather and
// decoding frames as they arrive must not change a single bit of any
// iterate. The gradient reads e.x, which ingestion never touches; frames
// land in per-sender slots and MixTo walks slots in sorted-id order, so
// arrival order is irrelevant. Run under -race this also exercises the
// gradient-worker handoff on every round of every node.
func TestPipelinedMatchesSequentialTCP(t *testing.T) {
	const rounds = 8
	seq := runPipelineCluster(t, true, rounds)
	pip := runPipelineCluster(t, false, rounds)

	for i := range seq {
		if len(seq[i]) != len(pip[i]) {
			t.Fatalf("node %d: param length %d vs %d", i, len(seq[i]), len(pip[i]))
		}
		for j := range seq[i] {
			if math.Float64bits(seq[i][j]) != math.Float64bits(pip[i][j]) {
				t.Fatalf("node %d param %d: sequential %v, pipelined %v — iterates must be bitwise identical",
					i, j, seq[i][j], pip[i][j])
			}
		}
	}
}

// TestPipelinedRoundAllocFree is the alloc budget of the pipelined round
// as PeerNode.Run composes it: the gradient handed to the node's
// persistent worker, send, then receive — streaming ingest, the
// join, the overlap accounting and StepMix. Three engines of a complete
// graph run it over the lockstep simulator with a registry-only Observer
// and a tracer attached; a steady-state round must allocate nothing,
// exactly like the batch-path budget in TestEngineRoundAllocFree.
func TestPipelinedRoundAllocFree(t *testing.T) {
	for _, policy := range []SendPolicy{SendSelected, SendChanged, SendAll} {
		t.Run(policy.String(), func(t *testing.T) {
			o := &obs.Observer{Reg: obs.NewRegistry()}
			engines := newTestEngines(t, 3, policy, func(c *EngineConfig) { c.Obs = o })
			net := transport.NewSim(graph.Complete(3), nil)
			met := newRoundMetrics(o)
			nodes := make([]*PeerNode, len(engines))
			for i, e := range engines {
				// The round half of a PeerNode over a simulated link: the
				// gradient worker and the nodeRound that joins it.
				pn := &PeerNode{engine: e, gradCmd: make(chan int)}
				pn.grad.done = make(chan struct{}, 1)
				pn.round = newNodeRound(e, simLink{net: net, id: i, nbrs: net.Neighbors(i)}, &met, nil)
				pn.round.grad = &pn.grad
				go pn.gradWorker()
				defer close(pn.gradCmd)
				nodes[i] = pn
			}
			round := 0
			iterate := func() {
				net.BeginRound(round)
				for _, pn := range nodes {
					pn.grad.running.Store(true)
					pn.gradCmd <- round
					if err := pn.round.send(round); err != nil {
						t.Fatal(err)
					}
				}
				for _, pn := range nodes {
					if _, err := pn.round.receive(round); err != nil {
						t.Fatal(err)
					}
				}
				round++
			}
			for i := 0; i < 5; i++ {
				iterate() // warm the scratch buffers
			}
			if avg := testing.AllocsPerRun(100, iterate); avg != 0 {
				t.Errorf("steady-state pipelined round allocated %v times per run, want 0", avg)
			}
		})
	}
}

// TestPipelineSplitMatchesStep checks the refactoring seam directly:
// per-frame IngestFrame is Integrate, and
// ComputeGradient followed by StepMix is Step, bit for bit. Two engine
// sets run the same schedule through the old and new entry points —
// the split set even computes the gradient *before* building/ingesting
// (the pipelined ordering), which must not matter because neither
// BuildUpdate nor ingestion moves e.x.
func TestPipelineSplitMatchesStep(t *testing.T) {
	batch := newTestEngines(t, 3, SendSelected)
	split := newTestEngines(t, 3, SendSelected)
	const n = 3

	for round := 0; round < 6; round++ {
		// Batch path: build all, Integrate each node's neighbor set at
		// once, then Step. Borrowed update buffers stay valid until the
		// owner's next BuildUpdate, which is next round.
		upds := make([]*codec.Update, n)
		for i, e := range batch {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			upds[i] = u
		}
		nbr := make([]*codec.Update, 0, n-1)
		for i, e := range batch {
			nbr = nbr[:0]
			for j := 0; j < n; j++ {
				if j != i {
					nbr = append(nbr, upds[j])
				}
			}
			if err := e.Integrate(nbr); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range batch {
			e.Step(round)
		}

		// Split path: the pipelined primitive sequence.
		for _, e := range split {
			e.ComputeGradient(round)
		}
		for i, e := range split {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			for j, other := range split {
				if i == j {
					continue
				}
				if err := other.IngestFrame(u); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range split {
			e.StepMix(round)
		}

		for i := range batch {
			bp, sp := batch[i].Params(), split[i].Params()
			for j := range bp {
				if math.Float64bits(bp[j]) != math.Float64bits(sp[j]) {
					t.Fatalf("round %d node %d param %d: batch %v, split %v",
						round, i, j, bp[j], sp[j])
				}
			}
		}
	}
}

// newTestEngines builds n engines over a complete graph that can feed
// each other updates directly — the in-process skeleton of a cluster,
// with the same data/seed recipe as newTestEngine, including tune.
func newTestEngines(t *testing.T, n int, policy SendPolicy, tune ...func(*EngineConfig)) []*Engine {
	t.Helper()
	_, parts := smallPartitions(t, n, 30, 1)
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	init := m.InitParams(7)
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		cfg := EngineConfig{
			ID:        i,
			Model:     m,
			Data:      parts[i],
			Alpha:     0.05,
			WRow:      w.Row(i),
			Neighbors: g.Neighbors(i),
			Policy:    policy,
			Init:      init,
			Trace:     trace.New(trace.Config{Node: i}),
		}
		for _, f := range tune {
			f(&cfg)
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}
