package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

func TestFullSendRound0(t *testing.T) {
	_, parts := smallPartitions(t, 3, 20, 51)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	eng, err := NewEngine(EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.05,
		WRow: w.Row(0), Neighbors: g.Neighbors(0),
		Policy: SendChanged, FullSendRound0: true,
		Init: m.InitParams(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := eng.BuildUpdate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != m.NumParams() {
		t.Errorf("round 0 sent %d params, want full %d", len(u.Indices), m.NumParams())
	}
	// Round 1 falls back to the configured policy (nothing changed since
	// round 0's full send and no Step ran, so nothing to transmit).
	u, err = eng.BuildUpdate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != 0 {
		t.Errorf("round 1 sent %d params without any step", len(u.Indices))
	}
}

func TestRefreshEveryForcesFullSend(t *testing.T) {
	_, parts := smallPartitions(t, 3, 20, 52)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	eng, err := NewEngine(EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.05,
		WRow: w.Row(0), Neighbors: g.Neighbors(0),
		Policy: SendSelected, RefreshEvery: 4,
		Init: m.InitParams(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		u, err := eng.BuildUpdate(round)
		if err != nil {
			t.Fatal(err)
		}
		wantFull := round > 0 && round%4 == 0
		if wantFull && len(u.Indices) != m.NumParams() {
			t.Errorf("round %d: refresh sent %d params, want full", round, len(u.Indices))
		}
		if round == 0 && len(u.Indices) != 0 {
			t.Errorf("round 0 sent %d params (shared init, no refresh)", len(u.Indices))
		}
		eng.Step(round)
	}
}

func TestRestartEveryResetsRecursion(t *testing.T) {
	_, parts := smallPartitions(t, 3, 20, 53)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	eng, err := NewEngine(EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.05,
		WRow: w.Row(0), Neighbors: g.Neighbors(0),
		Policy: SendChanged, RestartEvery: 5,
		Init: m.InitParams(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 11; round++ {
		eng.Step(round)
	}
	if eng.Restarts() != 2 {
		t.Errorf("restarts = %d after 11 rounds with RestartEvery=5, want 2", eng.Restarts())
	}
}

// TestPerNodeInitConvergesToCentralized verifies that with independent
// initial parameters (and the round-0 full exchange) the cluster still
// reaches the pooled-data optimum — EXTRA converges from arbitrary x⁰.
func TestPerNodeInitConvergesToCentralized(t *testing.T) {
	m, parts, test := creditSetup(t, 5, 2000, 54)
	c, err := NewCluster(ClusterConfig{
		Topology:      graph.RandomConnected(5, 3, rand.New(rand.NewSource(55))),
		Model:         m,
		Partitions:    parts,
		Test:          test,
		Alpha:         0.1,
		Policy:        SendSelected,
		PerNodeInit:   true,
		MaxIterations: 400,
		Convergence:   metrics.ConvergenceDetector{RelTol: 1e-4, Patience: 3, ConsensusTol: 0.01},
		Seed:          56,
		EvalEvery:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("per-node-init run did not converge in %d iterations", res.Iterations)
	}
	central := centralizedAggregateLoss(m, parts, 4000, 0.05, 56)
	if res.FinalLoss > central*1.05+1e-6 {
		t.Errorf("per-node-init loss %v vs centralized %v", res.FinalLoss, central)
	}
	// Engines truly started apart: round 0 of the trace shows nonzero
	// consensus residual.
	if res.Trace.Stats[0].Consensus < 1e-3 {
		t.Errorf("initial consensus residual %v suspiciously small for per-node init",
			res.Trace.Stats[0].Consensus)
	}
}

// TestLossyLinksWithRefreshRecoverOptimum reproduces the failure mode that
// motivated RefreshEvery/RestartEvery: without them, silently dropped
// frames freeze the cluster at a non-optimal fixed point; with them
// (enabled automatically when FailureRate > 0) the run reaches the same
// loss as a clean run.
func TestLossyLinksWithRefreshRecoverOptimum(t *testing.T) {
	m, parts, _ := creditSetup(t, 6, 2400, 57)
	topo := graph.RandomConnected(6, 3, rand.New(rand.NewSource(58)))
	run := func(failureRate float64) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts,
			Alpha: 0.1, Policy: SendSelected, MaxIterations: 300,
			Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 1 << 30},
			Seed:        59, FailureRate: failureRate,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0)
	lossy := run(0.05)
	if rel := math.Abs(lossy.FinalLoss-clean.FinalLoss) / clean.FinalLoss; rel > 0.02 {
		t.Errorf("lossy-link final loss %v vs clean %v (rel gap %v) — refresh/restart failed to repair staleness",
			lossy.FinalLoss, clean.FinalLoss, rel)
	}
}

// TestFloat32WireMatchesFloat64 verifies the float32 wire extension:
// same convergence and accuracy, fewer bytes.
func TestFloat32WireMatchesFloat64(t *testing.T) {
	m, parts, test := creditSetup(t, 5, 2000, 61)
	topo := graph.RandomConnected(5, 3, rand.New(rand.NewSource(62)))
	run := func(f32 bool) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts, Test: test,
			Alpha: 0.1, Policy: SendSelected, Float32Wire: f32,
			MaxIterations: 300, Convergence: paperDetector(),
			Seed: 63, EvalEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	lossy := run(true)
	if !lossy.Converged {
		t.Errorf("float32 run did not converge in %d iterations", lossy.Iterations)
	}
	if math.Abs(lossy.FinalAccuracy-full.FinalAccuracy) > 0.02 {
		t.Errorf("float32 accuracy %v vs float64 %v", lossy.FinalAccuracy, full.FinalAccuracy)
	}
	if lossy.TotalCost >= full.TotalCost {
		t.Errorf("float32 cost %v not below float64 %v", lossy.TotalCost, full.TotalCost)
	}
}
