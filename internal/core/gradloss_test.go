package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
)

// TestGradientLossMatchesModelLoss pins the value ComputeGradient leaves
// behind to the explicit evaluator: GradientLoss is Model.Loss at the
// iterate the gradient was taken at, over the full partition — bit for
// bit when the partition is one gradient shard or the gradient ran on a
// sampled mini-batch (the loss is then its own Model.Loss pass), and to
// rounding when several shard sums meet in the reduction tree.
func TestGradientLossMatchesModelLoss(t *testing.T) {
	for _, tc := range []struct {
		name      string
		samples   int
		batchSize int
		bitwise   bool
	}{
		{"oneShard", 200, 0, true},
		{"threeShards", 2*model.GradShardSize + 40, 0, false},
		{"miniBatch", 2*model.GradShardSize + 40, 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := dataset.SyntheticCredit(dataset.CreditConfig{Samples: tc.samples, Features: 8}, rand.New(rand.NewSource(4)))
			m := model.NewLogisticRegression(8)
			// A one-node cluster: the mixing row is the identity, so the
			// engine runs plain gradient descent through the full round path.
			e, err := NewEngine(EngineConfig{
				Model: m, Data: data, Alpha: 0.1, WRow: linalg.Vector{1},
				BatchSize: tc.batchSize, Init: m.InitParams(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsNaN(e.GradientLoss()) {
				t.Errorf("GradientLoss before any gradient = %v, want NaN", e.GradientLoss())
			}
			for round := 0; round < 5; round++ {
				want := m.Loss(e.Params(), data.Samples)
				if ll := e.LocalLoss(); math.Float64bits(ll) != math.Float64bits(want) {
					t.Fatalf("round %d: LocalLoss = %v, Model.Loss = %v", round, ll, want)
				}
				e.ComputeGradient(round)
				got := e.GradientLoss()
				if tc.bitwise && math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("round %d: GradientLoss = %v, Model.Loss = %v", round, got, want)
				}
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Errorf("round %d: GradientLoss = %v, Model.Loss = %v", round, got, want)
				}
				e.StepMix(round)
			}
		})
	}
}

// iterateLog is a ParamSink keeping a copy of every round's iterate.
type iterateLog struct{ byRound []linalg.Vector }

func (l *iterateLog) Publish(_, _ int, params linalg.Vector) {
	l.byRound = append(l.byRound, params.Clone())
}

// TestTraceLossIsRoundStartObjectiveTCP checks the loss semantics of the
// production TCP driver on a 5-node cluster: round 0 reports the
// objective at the shared initial point, and round k+1 reports exactly
// what a LocalLoss call after round k — the second forward pass the
// driver used to make — would have returned.
func TestTraceLossIsRoundStartObjectiveTCP(t *testing.T) {
	const rounds = 8
	logs := make([]*iterateLog, 5)
	nodes := startPeerNodes(t, 5, 30*time.Second, func(i int, cfg *PeerNodeConfig) {
		logs[i] = &iterateLog{}
		cfg.Feed = logs[i]
	})
	var wg sync.WaitGroup
	for i, pn := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := pn.Run(rounds)
			if err != nil {
				t.Errorf("node %d: %v", i, err)
				return
			}
			cfg := pn.Engine().cfg
			at := cfg.Init
			for k, st := range tr.Stats {
				if want := cfg.Model.Loss(at, cfg.Data.Samples); math.Float64bits(st.Loss) != math.Float64bits(want) {
					t.Errorf("node %d round %d: trace loss %v, objective at the round's starting iterate %v", i, k, st.Loss, want)
				}
				at = logs[i].byRound[k]
			}
			if got, want := pn.Engine().LocalLoss(), cfg.Model.Loss(at, cfg.Data.Samples); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("node %d: LocalLoss after the run = %v, want %v", i, got, want)
			}
		}()
	}
	wg.Wait()
}

// TestClusterTraceLossIsRoundStartObjective is the same contract for the
// simulator driver, whose trace carries the aggregate Σ_i f_i: round k+1
// reports the aggregate at the iterates round k produced, and FinalLoss
// stays the exact objective at the final iterates.
func TestClusterTraceLossIsRoundStartObjective(t *testing.T) {
	const n, rounds = 4, 6
	_, parts := smallPartitions(t, n, 50, 9)
	m := model.NewLinearSVM(8)
	objective := func(iterates []linalg.Vector) float64 {
		var total float64
		for i, x := range iterates {
			total += m.Loss(x, parts[i].Samples)
		}
		return total
	}
	init := m.InitParams(13)
	after := [][]linalg.Vector{{init, init, init, init}} // after[k] = iterates entering round k
	c, err := NewCluster(ClusterConfig{
		Topology: graph.Ring(n), Model: m, Partitions: parts, Alpha: 0.1,
		MaxIterations: rounds, Seed: 13,
		OnIteration: func(_ int, c *Cluster) {
			xs := make([]linalg.Vector, n)
			for i, e := range c.Engines() {
				xs[i] = e.Params()
			}
			after = append(after, xs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != rounds {
		t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
	}
	for k, st := range res.Trace.Stats {
		if want := objective(after[k]); math.Float64bits(st.Loss) != math.Float64bits(want) {
			t.Errorf("round %d: trace loss %v, aggregate at the round's starting iterates %v", k, st.Loss, want)
		}
	}
	if want := objective(after[rounds]); math.Float64bits(res.FinalLoss) != math.Float64bits(want) {
		t.Errorf("FinalLoss = %v, aggregate at the final iterates %v", res.FinalLoss, want)
	}
}
