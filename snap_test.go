package snap_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap"
)

// facadeWorkload builds a small shared workload through the public API
// only.
func facadeWorkload(t *testing.T, servers int) (snap.Model, []*snap.Dataset, *snap.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(100))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 1500}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(servers, rng)
	if err != nil {
		t.Fatal(err)
	}
	return snap.NewLinearSVM(data.NumFeature), parts, test
}

func TestTopologyConstructors(t *testing.T) {
	if g := snap.CompleteTopology(4); g.NumEdges() != 6 {
		t.Errorf("K4 edges = %d", g.NumEdges())
	}
	if g := snap.RingTopology(5); g.NumEdges() != 5 {
		t.Errorf("C5 edges = %d", g.NumEdges())
	}
	g := snap.RandomTopology(30, 3, 7)
	if !g.IsConnected() {
		t.Error("random topology disconnected")
	}
	// Deterministic per seed.
	h := snap.RandomTopology(30, 3, 7)
	if g.NumEdges() != h.NumEdges() {
		t.Error("RandomTopology not deterministic")
	}
}

func TestTrainThroughFacade(t *testing.T) {
	model, parts, test := facadeWorkload(t, 4)
	res, err := snap.Train(snap.Config{
		Topology:      snap.CompleteTopology(4),
		Model:         model,
		Partitions:    parts,
		Test:          test,
		Alpha:         0.1,
		Policy:        snap.SNAP,
		MaxIterations: 200,
		Convergence:   snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.02},
		Seed:          1,
		EvalEvery:     50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("facade SNAP run did not converge in %d iterations", res.Iterations)
	}
	if res.FinalAccuracy < 0.8 {
		t.Errorf("accuracy = %v", res.FinalAccuracy)
	}
	if res.TotalCost <= 0 {
		t.Error("no communication recorded")
	}
}

func TestTrainValidatesThroughFacade(t *testing.T) {
	model, parts, _ := facadeWorkload(t, 4)
	if _, err := snap.Train(snap.Config{Model: model, Partitions: parts, Alpha: 0.1}); err == nil {
		t.Error("missing topology accepted")
	}
}

func TestBaselinesThroughFacade(t *testing.T) {
	model, parts, test := facadeWorkload(t, 4)
	cfg := snap.BaselineConfig{
		Topology: snap.CompleteTopology(4), Model: model, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 200, EvalEvery: 50, Seed: 2,
		Convergence: snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3},
	}
	central, err := snap.TrainCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := snap.TrainPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ternCfg := cfg
	ternCfg.BatchSize = 2
	tern, err := snap.TrainTernGrad(ternCfg)
	if err != nil {
		t.Fatal(err)
	}
	if central.Scheme != "centralized" || ps.Scheme != "ps" || tern.Scheme != "terngrad" {
		t.Errorf("schemes = %q %q %q", central.Scheme, ps.Scheme, tern.Scheme)
	}
	if math.Abs(central.FinalAccuracy-ps.FinalAccuracy) > 0.03 {
		t.Errorf("PS accuracy %v far from centralized %v", ps.FinalAccuracy, central.FinalAccuracy)
	}
	if ps.TotalCost <= 0 || tern.TotalCost <= 0 {
		t.Error("baseline costs missing")
	}
}

// TestDGDValidation checks that TrainDGD rejects what the cluster cannot
// run.
func TestDGDValidation(t *testing.T) {
	model, parts, _ := facadeWorkload(t, 3)
	topo := snap.RingTopology(3)
	for _, tc := range []struct {
		name string
		cfg  snap.BaselineConfig
	}{
		{"missing topology", snap.BaselineConfig{Model: model, Partitions: parts, Alpha: 0.1}},
		{"partition mismatch", snap.BaselineConfig{Topology: topo, Model: model, Partitions: parts[:2], Alpha: 0.1}},
		{"zero alpha", snap.BaselineConfig{Topology: topo, Model: model, Partitions: parts}},
	} {
		if _, err := snap.TrainDGD(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestDGDMakesProgressButStallsAboveEXTRA is why SNAP builds on EXTRA:
// with the same constant step size, DGD stalls at a strictly higher
// disagreement than EXTRA (SNAP-0), because each node's local gradient
// biases it away from consensus; EXTRA's correction term removes that
// bias. The bias scales with gradient heterogeneity, so the workload uses
// label-skewed non-IID shards (under IID splits local gradients nearly
// agree and DGD's bias is invisible).
func TestDGDMakesProgressButStallsAboveEXTRA(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 2400}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.PartitionNonIID(6, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := snap.NewLinearSVM(data.NumFeature)
	topo := snap.RandomTopology(6, 3, 42)
	noStop := snap.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30}

	dgd, err := snap.TrainDGD(snap.BaselineConfig{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 300, Convergence: noStop, EvalEvery: 100, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := snap.Train(snap.Config{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: 0.1, Policy: snap.SNAP0, MaxIterations: 300,
		Convergence: noStop, EvalEvery: 100, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}

	if dgd.Scheme != "dgd" {
		t.Errorf("scheme = %q", dgd.Scheme)
	}
	// DGD does learn: round 0 reports the objective at the shared initial
	// point, and the run ends well below it with usable accuracy.
	if start := dgd.Trace.Stats[0].Loss; dgd.FinalLoss > 0.8*start {
		t.Errorf("DGD made no progress: start %v, end %v", start, dgd.FinalLoss)
	}
	if dgd.FinalAccuracy < 0.8 {
		t.Errorf("DGD accuracy = %v", dgd.FinalAccuracy)
	}
	// ... but with a constant step it never reaches consensus: the nodes'
	// disagreement stalls at O(α·heterogeneity), while EXTRA's correction
	// term drives it to numerical zero.
	dgdLast, _ := dgd.Trace.Last()
	extraLast, _ := extra.Trace.Last()
	if dgdLast.Consensus < 100*extraLast.Consensus {
		t.Errorf("DGD consensus %v vs EXTRA %v — expected DGD to stall orders of magnitude above",
			dgdLast.Consensus, extraLast.Consensus)
	}
	if extraLast.Consensus > 1e-4 {
		t.Errorf("EXTRA consensus %v did not approach zero", extraLast.Consensus)
	}
}

func TestPeerNodesThroughFacade(t *testing.T) {
	const servers = 3
	model, parts, _ := facadeWorkload(t, servers)
	topo := snap.CompleteTopology(servers)

	nodes := make([]*snap.PeerNode, servers)
	addrs := make(map[int]string, servers)
	for i := range nodes {
		node, err := snap.NewPeerNode(snap.PeerConfig{
			ID: i, Topology: topo, Model: model, Data: parts[i],
			Alpha: 0.1, Policy: snap.SNAP0, Seed: 3,
			ListenAddr: "127.0.0.1:0", RoundTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		defer node.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, servers)
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *snap.PeerNode) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for _, j := range topo.Neighbors(i) {
				neighbors[j] = addrs[j]
			}
			if err := node.Connect(neighbors); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = node.Run(20)
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Nodes approached consensus.
	ref := nodes[0].Engine().Params()
	for i, node := range nodes[1:] {
		if d := node.Engine().Params().Sub(ref).NormInf(); d > 0.1 {
			t.Errorf("node %d disagreement %v after 20 rounds", i+1, d)
		}
	}
}

func TestPeerConfigValidation(t *testing.T) {
	model, parts, _ := facadeWorkload(t, 3)
	topo := snap.CompleteTopology(3)
	if _, err := snap.NewPeerNode(snap.PeerConfig{ID: 0, Model: model, Data: parts[0], Alpha: 0.1, ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Error("missing topology accepted")
	}
	if _, err := snap.NewPeerNode(snap.PeerConfig{ID: 9, Topology: topo, Model: model, Data: parts[0], Alpha: 0.1, ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := snap.NewPeerNode(snap.PeerConfig{ID: 0, Topology: topo, Data: parts[0], Alpha: 0.1, ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Error("missing model accepted")
	}
}

// TestOptimizedWRowsThroughFacade distributes centrally optimized
// weight rows to a static TCP cluster via PeerConfig.WRow — the
// coordinator-less path to the paper's Section IV-B optimization — and
// checks the cluster still reaches consensus.
func TestOptimizedWRowsThroughFacade(t *testing.T) {
	const servers = 4
	model, parts, _ := facadeWorkload(t, servers)
	topo := snap.RingTopology(servers)

	rows, err := snap.OptimizeWeightRows(topo, snap.BoundParams{Alpha: 0.1}, snap.WeightOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != servers {
		t.Fatalf("%d rows for %d nodes", len(rows), servers)
	}
	for i, row := range rows {
		var sum float64
		for j, w := range row {
			sum += w
			if w != 0 && j != i && !topo.HasEdge(i, j) {
				t.Errorf("row %d has nonzero weight %g for non-neighbor %d", i, w, j)
			}
			if math.Abs(w-rows[j][i]) > 1e-9 {
				t.Errorf("rows not symmetric at (%d,%d): %g vs %g", i, j, w, rows[j][i])
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}

	nodes := make([]*snap.PeerNode, servers)
	addrs := make(map[int]string, servers)
	for i := range nodes {
		node, err := snap.NewPeerNode(snap.PeerConfig{
			ID: i, Topology: topo, WRow: rows[i], Model: model, Data: parts[i],
			Alpha: 0.1, Policy: snap.SNAP, Seed: 11,
			ListenAddr: "127.0.0.1:0", RoundTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		defer node.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, servers)
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *snap.PeerNode) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for _, j := range topo.Neighbors(i) {
				neighbors[j] = addrs[j]
			}
			if err := node.Connect(neighbors); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = node.Run(25)
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	ref := nodes[0].Engine().Params()
	for i, node := range nodes[1:] {
		if d := node.Engine().Params().Sub(ref).NormInf(); d > 0.1 {
			t.Errorf("node %d disagreement %v with optimized rows", i+1, d)
		}
	}
}

func TestWRowValidation(t *testing.T) {
	model, parts, _ := facadeWorkload(t, 4)
	topo := snap.RingTopology(4) // node 0's neighbors: 1 and 3; 2 is not one
	base := snap.PeerConfig{
		ID: 0, Topology: topo, Model: model, Data: parts[0],
		Alpha: 0.1, ListenAddr: "127.0.0.1:0",
	}
	cases := []struct {
		name string
		row  []float64
	}{
		{"wrongLength", []float64{0.5, 0.5}},
		{"notStochastic", []float64{0.5, 0.2, 0, 0.2}},
		{"nonNeighborSupport", []float64{0.4, 0.2, 0.2, 0.2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.WRow = tc.row
			if _, err := snap.NewPeerNode(cfg); err == nil {
				t.Errorf("weight row %v accepted", tc.row)
			}
		})
	}
	cfg := base
	cfg.WRow = []float64{0.5, 0.25, 0, 0.25}
	node, err := snap.NewPeerNode(cfg)
	if err != nil {
		t.Fatalf("valid weight row rejected: %v", err)
	}
	node.Close()
}

func TestStragglerTrainingThroughFacade(t *testing.T) {
	model, parts, test := facadeWorkload(t, 5)
	res, err := snap.Train(snap.Config{
		Topology:      snap.RandomTopology(5, 3, 9),
		Model:         model,
		Partitions:    parts,
		Test:          test,
		Alpha:         0.1,
		Policy:        snap.SNAP,
		FailureRate:   0.05,
		MaxIterations: 300,
		Convergence:   snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.05},
		Seed:          4,
		EvalEvery:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.78 {
		t.Errorf("straggler accuracy = %v", res.FinalAccuracy)
	}
}
