package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// paperDetector mirrors the stopping rule the experiment harness uses.
func paperDetector() metrics.ConvergenceDetector {
	return metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.05}
}

// creditSetup builds a shared credit-data workload split across n nodes.
func creditSetup(t *testing.T, n, total int, seed int64) (m model.Model, parts []*dataset.Dataset, test *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: total, Features: 24}, rng)
	train, test := ds.Split(0.85, rng)
	parts, err := train.Partition(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return model.NewLinearSVM(24), parts, test
}

// centralizedAggregateLoss trains on the pooled data with plain gradient
// descent and returns the aggregate objective Σ_i f_i(x) at the solution.
func centralizedAggregateLoss(m model.Model, parts []*dataset.Dataset, steps int, lr float64, seed int64) float64 {
	var all []dataset.Sample
	for _, p := range parts {
		all = append(all, p.Samples...)
	}
	x := m.InitParams(seed)
	g := linalg.NewVector(len(x))
	for s := 0; s < steps; s++ {
		model.GradientTo(m, g, x, all, nil, 1)
		x.AXPYInPlace(-lr, g)
	}
	var total float64
	for _, p := range parts {
		total += m.Loss(x, p.Samples)
	}
	return total
}

func TestClusterValidation(t *testing.T) {
	m, parts, test := creditSetup(t, 3, 600, 1)
	base := ClusterConfig{
		Topology: graph.Complete(3), Model: m, Partitions: parts, Test: test, Alpha: 0.1,
	}

	bad := base
	bad.Topology = nil
	if _, err := NewCluster(bad); err == nil {
		t.Error("nil topology accepted")
	}

	bad = base
	disconnected := graph.New(3)
	disconnected.AddEdge(0, 1)
	bad.Topology = disconnected
	if _, err := NewCluster(bad); err == nil {
		t.Error("disconnected topology accepted")
	}

	bad = base
	bad.Partitions = parts[:2]
	if _, err := NewCluster(bad); err == nil {
		t.Error("partition count mismatch accepted")
	}

	bad = base
	bad.Model = nil
	if _, err := NewCluster(bad); err == nil {
		t.Error("nil model accepted")
	}

	bad = base
	bad.Alpha = -1
	if _, err := NewCluster(bad); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestClusterSNAP0MatchesCentralized(t *testing.T) {
	m, parts, test := creditSetup(t, 4, 2400, 2)
	c, err := NewCluster(ClusterConfig{
		Topology:      graph.RandomConnected(4, 3, rand.New(rand.NewSource(5))),
		Model:         m,
		Partitions:    parts,
		Test:          test,
		Alpha:         0.1,
		Policy:        SendChanged,
		MaxIterations: 500,
		Convergence:   metrics.ConvergenceDetector{RelTol: 1e-6, Patience: 5, ConsensusTol: 0.01},
		Seed:          7,
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
		t.Errorf("SNAP-0 did not converge in %d iterations", res.Iterations)
	}
	central := centralizedAggregateLoss(m, parts, 4000, 0.05, 7)
	if res.FinalLoss > central*1.03+1e-6 {
		t.Errorf("SNAP-0 aggregate loss %v, centralized %v — should match within 3%%", res.FinalLoss, central)
	}
	if last, _ := res.Trace.Last(); last.Consensus > 0.02 {
		t.Errorf("consensus residual = %v, want small", last.Consensus)
	}
}

func TestClusterCostOrderingOverFixedHorizon(t *testing.T) {
	// Over an identical fixed horizon SNAP sends a subset of what SNAP-0
	// sends, which sends a subset of what SNO sends — per-message frames
	// are monotone in the withheld count, so total costs must be ordered.
	m, parts, _ := creditSetup(t, 4, 1600, 3)
	topo := graph.Complete(4)
	run := func(policy SendPolicy) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts,
			Alpha: 0.1, Policy: policy, MaxIterations: 250,
			Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 10000},
			Seed:        11,
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
	snap := run(SendSelected)
	snap0 := run(SendChanged)
	sno := run(SendAll)
	if !(snap.TotalCost < snap0.TotalCost && snap0.TotalCost <= sno.TotalCost) {
		t.Errorf("cost ordering violated: snap=%v snap0=%v sno=%v",
			snap.TotalCost, snap0.TotalCost, sno.TotalCost)
	}
}

func TestClusterSNAPConvergesLikeSNAP0(t *testing.T) {
	m, parts, test := creditSetup(t, 5, 2000, 3)
	topo := graph.RandomConnected(5, 3, rand.New(rand.NewSource(9)))
	run := func(policy SendPolicy) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts, Test: test,
			Alpha: 0.1, Policy: policy, MaxIterations: 400,
			Convergence: paperDetector(),
			Seed:        11, EvalEvery: 100,
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
	snap := run(SendSelected)
	snap0 := run(SendChanged)

	if !snap.Converged {
		t.Errorf("SNAP did not converge in %d iterations", snap.Iterations)
	}
	if !snap0.Converged {
		t.Errorf("SNAP-0 did not converge in %d iterations", snap0.Iterations)
	}
	// Accuracy parity within 2 points (paper: SNAP matches SNAP-0/centralized).
	if math.Abs(snap.FinalAccuracy-snap0.FinalAccuracy) > 0.02 {
		t.Errorf("SNAP accuracy %v vs SNAP-0 %v", snap.FinalAccuracy, snap0.FinalAccuracy)
	}
	// SNAP should not need drastically more iterations (paper: 3-4 more).
	if snap.Iterations > snap0.Iterations+20 {
		t.Errorf("SNAP took %d iterations vs SNAP-0 %d", snap.Iterations, snap0.Iterations)
	}
}

func TestClusterStragglersStillConverge(t *testing.T) {
	m, parts, test := creditSetup(t, 6, 1800, 4)
	topo := graph.RandomConnected(6, 3, rand.New(rand.NewSource(13)))
	run := func(failureRate float64) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts, Test: test,
			Alpha: 0.1, Policy: SendChanged, MaxIterations: 500,
			Convergence: paperDetector(),
			Seed:        17, FailureRate: failureRate, EvalEvery: 100,
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
	faulty := run(0.05)
	if !clean.Converged || !faulty.Converged {
		t.Fatalf("convergence: clean=%v faulty=%v", clean.Converged, faulty.Converged)
	}
	if math.Abs(faulty.FinalAccuracy-clean.FinalAccuracy) > 0.03 {
		t.Errorf("straggler accuracy %v vs clean %v", faulty.FinalAccuracy, clean.FinalAccuracy)
	}
}

func TestClusterDeterministic(t *testing.T) {
	m, parts, test := creditSetup(t, 4, 800, 5)
	topo := graph.Ring(4)
	run := func() *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts, Test: test,
			Alpha: 0.1, Policy: SendSelected, MaxIterations: 60,
			Seed: 23, EvalEvery: 30,
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
	a, b := run(), run()
	if a.Iterations != b.Iterations || a.TotalCost != b.TotalCost {
		t.Fatalf("runs differ: iters %d/%d cost %v/%v", a.Iterations, b.Iterations, a.TotalCost, b.TotalCost)
	}
	for i := range a.Trace.Stats {
		if a.Trace.Stats[i].Loss != b.Trace.Stats[i].Loss {
			t.Fatalf("loss differs at round %d: %v vs %v", i, a.Trace.Stats[i].Loss, b.Trace.Stats[i].Loss)
		}
	}
}

func TestClusterWeightOptimizationDoesNotSlowConvergence(t *testing.T) {
	m, parts, _ := creditSetup(t, 20, 4000, 6)
	topo := graph.RandomConnected(20, 4, rand.New(rand.NewSource(31)))
	run := func(opt bool) *Result {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts,
			Alpha: 0.1, Policy: SendChanged, MaxIterations: 400,
			Convergence:     paperDetector(),
			Seed:            37,
			OptimizeWeights: opt,
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
	plain := run(false)
	optimized := run(true)
	if !plain.Converged || !optimized.Converged {
		t.Fatalf("convergence: plain=%v optimized=%v", plain.Converged, optimized.Converged)
	}
	// Paper Fig. 5: the optimized matrix needs no more iterations, and
	// usually fewer. Allow a tiny slack for detector quantization.
	if optimized.Iterations > plain.Iterations+3 {
		t.Errorf("weight optimization slowed convergence: %d vs %d iterations",
			optimized.Iterations, plain.Iterations)
	}
}

func TestClusterSNAPCostDecays(t *testing.T) {
	m, parts, _ := creditSetup(t, 4, 1200, 8)
	c, err := NewCluster(ClusterConfig{
		Topology: graph.Complete(4), Model: m, Partitions: parts,
		Alpha: 0.1, Policy: SendSelected, MaxIterations: 420,
		Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 10000}, // run all rounds
		Seed:        41,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	early := avg(res.PerRoundCost[1:11])
	late := avg(res.PerRoundCost[len(res.PerRoundCost)-10:])
	if late > 0.7*early {
		t.Errorf("per-round cost did not decay: early %v late %v", early, late)
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestClusterSuppliedWeightsValidation(t *testing.T) {
	m, parts, _ := creditSetup(t, 3, 300, 9)
	base := ClusterConfig{
		Topology: graph.Complete(3), Model: m, Partitions: parts, Alpha: 0.1,
	}

	bad := base
	bad.Weights = linalg.NewMatrix(2, 2)
	if _, err := NewCluster(bad); err == nil {
		t.Error("wrong-size weight matrix accepted")
	}

	bad = base
	notStochastic := linalg.Identity(3)
	notStochastic.Set(0, 0, 0.5) // rows no longer sum to 1
	bad.Weights = notStochastic
	if _, err := NewCluster(bad); err == nil {
		t.Error("non-stochastic weight matrix accepted")
	}

	// Symmetric and doubly stochastic, but with weight on the ring's
	// non-edges: a node never receives a non-neighbor's parameters, so the
	// cluster could not mix with the matrix it was given.
	m4, parts4, _ := creditSetup(t, 4, 400, 9)
	ringWithChords := ClusterConfig{
		Topology: graph.Ring(4), Model: m4, Partitions: parts4, Alpha: 0.1,
		Weights: weights.Metropolis(graph.Complete(4), 0),
	}
	if _, err := NewCluster(ringWithChords); err == nil {
		t.Error("weight matrix with weight on non-edges accepted")
	}

	good := base
	good.Weights = weights.Metropolis(graph.Complete(3), 0)
	c, err := NewCluster(good)
	if err != nil {
		t.Fatal(err)
	}
	if c.WeightMatrix() != good.Weights {
		t.Error("supplied weight matrix not used")
	}
}

func TestClusterEvalEvery(t *testing.T) {
	m, parts, test := creditSetup(t, 3, 300, 10)
	c, err := NewCluster(ClusterConfig{
		Topology: graph.Complete(3), Model: m, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 10, EvalEvery: 4, Seed: 11,
		Convergence: metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, stat := range res.Trace.Stats {
		evaluated := !math.IsNaN(stat.Accuracy)
		wantEval := i%4 == 0 || i == 9
		if evaluated != wantEval {
			t.Errorf("round %d: accuracy evaluated=%v, want %v", i, evaluated, wantEval)
		}
	}
	if math.IsNaN(res.FinalAccuracy) {
		t.Error("final accuracy missing")
	}
}

func TestEngineUnknownPolicy(t *testing.T) {
	m, parts, _ := creditSetup(t, 3, 300, 12)
	w := weights.Metropolis(graph.Complete(3), 0)
	eng, err := NewEngine(EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.1,
		WRow: w.Row(0), Neighbors: graph.Complete(3).Neighbors(0),
		Policy: SendPolicy(99), Init: m.InitParams(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildUpdate(0); err == nil {
		t.Error("unknown policy accepted by BuildUpdate")
	}
}

// TestCorrectionSumConserved checks the conservation law of EXTRA's
// correction form. Node i adds ½(x_i − (Wx)_i) to s_i every round, so
// Σ_i s_i grows by ½·1ᵀ(I − W)x, which is zero while W is doubly
// stochastic and every node mixes exact views of its neighbors. The sum
// is read through a fixed random direction r, Σ_i ⟨s_i, r⟩, after every
// round; each node's own term stays far from zero.
//
// SNAP is not checked: a withheld parameter leaves every neighbor of j
// mixing the stale view x̂_j, and then
// Σ_i s_i = ½ Σ_t Σ_j (1 − w_jj)(x_j^t − x̂_j^t) ≠ 0.
func TestCorrectionSumConserved(t *testing.T) {
	const rounds = 200
	_, parts := smallPartitions(t, 6, 30, 1)
	topo := graph.RandomConnected(6, 3, rand.New(rand.NewSource(5)))
	m := model.NewLinearSVM(8)
	rng := rand.New(rand.NewSource(3))
	r := linalg.NewVector(m.NumParams())
	for i := range r {
		r[i] = rng.NormFloat64()
	}

	// run trains for rounds and returns max over rounds of |Σ_i ⟨s_i, r⟩|
	// and of max_i |⟨s_i, r⟩|. At round 50 it resets s on the nodes in
	// restart — a mutation OnIteration's contract forbids callers, made
	// here to model a restart in one round or in several.
	run := func(policy SendPolicy, perNodeInit bool, restart ...int) (sum, term float64) {
		c, err := NewCluster(ClusterConfig{
			Topology: topo, Model: m, Partitions: parts,
			Alpha: 0.1, Policy: policy, PerNodeInit: perNodeInit,
			MaxIterations: rounds,
			Convergence:   metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30},
			Seed:          7,
			OnIteration: func(round int, c *Cluster) {
				if round == 50 {
					for _, id := range restart {
						c.Engines()[id].restartRecursion()
					}
				}
				var total float64
				for _, e := range c.Engines() {
					d := e.s.Dot(r)
					total += d
					term = math.Max(term, math.Abs(d))
				}
				sum = math.Max(sum, math.Abs(total))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return sum, term
	}

	for _, policy := range []SendPolicy{SendAll, SendChanged} {
		for _, perNodeInit := range []bool{false, true} {
			sum, term := run(policy, perNodeInit)
			if sum > 1e-12 || term < 1e-3 {
				t.Errorf("%v, PerNodeInit %v: max |Σ_i ⟨s_i, r⟩| = %g (want ≤ 1e-12), max |⟨s_i, r⟩| = %g",
					policy, perNodeInit, sum, term)
			}
		}
	}
	if sum, _ := run(SendAll, false, 0, 1, 2, 3, 4, 5); sum > 1e-12 {
		t.Errorf("all nodes restarting in one round: max |Σ_i ⟨s_i, r⟩| = %g, want ≤ 1e-12", sum)
	}
	// One node zeroing s alone breaks the sum for good: the mechanism of
	// the old elastic epoch switch, which restarted nodes in different
	// rounds. Epoch switches now keep s (TestElasticStaggeredSwitch), and
	// RestartEvery restarts every node in the same round.
	if sum, _ := run(SendAll, false, 0); sum <= 1e-6 {
		t.Errorf("node 0 restarting alone: max |Σ_i ⟨s_i, r⟩| = %g, want > 1e-6", sum)
	}
}

// poolRun trains a 20-node SVM cluster for 30 rounds at the given
// GOMAXPROCS (so on that many pool workers) and returns every node's
// final iterate and the loss trace.
func poolRun(t *testing.T, procs int, failureRate float64) ([]linalg.Vector, []float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const n, rounds = 20, 30
	m, parts, _ := creditSetup(t, n, 2400, 13)
	c, err := NewCluster(ClusterConfig{
		Topology: graph.RandomConnected(n, 3, rand.New(rand.NewSource(14))),
		Model:    m, Partitions: parts, Alpha: 0.1, Policy: SendSelected,
		FailureRate: failureRate, Seed: 15, MaxIterations: rounds,
		Convergence: metrics.ConvergenceDetector{Patience: rounds + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.startRunners()
	if want := min(procs, n); c.workers != want {
		t.Fatalf("GOMAXPROCS %d: %d pool workers, want %d", procs, c.workers, want)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	iterates := make([]linalg.Vector, n)
	for i, e := range c.Engines() {
		iterates[i] = e.Params().Clone()
	}
	losses := make([]float64, len(res.Trace.Stats))
	for k, s := range res.Trace.Stats {
		losses[k] = s.Loss
	}
	return iterates, losses
}

// TestClusterPoolSizeDoesNotChangeIterates runs one 20-node problem on
// one, two and four pool workers, with and without link failures: which
// worker runs which node is scheduling-dependent, but every node's
// iterate and every round's loss must come out bit for bit the same.
func TestClusterPoolSizeDoesNotChangeIterates(t *testing.T) {
	for _, rate := range []float64{0, 0.1} {
		wantX, wantLoss := poolRun(t, 1, rate)
		for _, procs := range []int{2, 4} {
			gotX, gotLoss := poolRun(t, procs, rate)
			for i := range wantX {
				for j := range wantX[i] {
					if math.Float64bits(gotX[i][j]) != math.Float64bits(wantX[i][j]) {
						t.Fatalf("failure rate %v, GOMAXPROCS %d: node %d param %d = %v, one worker gives %v",
							rate, procs, i, j, gotX[i][j], wantX[i][j])
					}
				}
			}
			for k := range wantLoss {
				if math.Float64bits(gotLoss[k]) != math.Float64bits(wantLoss[k]) {
					t.Fatalf("failure rate %v, GOMAXPROCS %d: round %d loss %v, one worker gives %v",
						rate, procs, k, gotLoss[k], wantLoss[k])
				}
			}
		}
	}
}

// TestClusterRunStopsItsWorkers checks that Run leaves no pool goroutine
// behind.
func TestClusterRunStopsItsWorkers(t *testing.T) {
	start := runtime.NumGoroutine()
	poolRun(t, 4, 0)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}
