package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
)

func setup(t *testing.T, n, total int, seed int64) (model.Model, []*dataset.Dataset, *dataset.Dataset) {
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

func detector() metrics.ConvergenceDetector {
	return metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3}
}

func TestCentralizedConverges(t *testing.T) {
	m, parts, test := setup(t, 4, 2000, 1)
	res, err := RunCentralized(Config{
		Model: m, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 400, Convergence: detector(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("centralized did not converge in %d iterations", res.Iterations)
	}
	if res.FinalAccuracy < 0.8 {
		t.Errorf("centralized accuracy = %v, want ≥ 0.8", res.FinalAccuracy)
	}
	if res.TotalCost != 0 {
		t.Errorf("centralized cost = %v, want 0", res.TotalCost)
	}
	if res.Scheme != "centralized" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

func TestCentralizedValidation(t *testing.T) {
	m, parts, _ := setup(t, 2, 100, 2)
	if _, err := RunCentralized(Config{Model: nil, Partitions: parts, Alpha: 0.1}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := RunCentralized(Config{Model: m, Partitions: nil, Alpha: 0.1}); err == nil {
		t.Error("no data accepted")
	}
	if _, err := RunCentralized(Config{Model: m, Partitions: parts, Alpha: 0}); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := RunCentralized(Config{Model: m, Partitions: []*dataset.Dataset{parts[0], nil}, Alpha: 0.1}); err == nil {
		t.Error("nil partition accepted")
	}
}

func TestPSConvergesAndChargesHops(t *testing.T) {
	m, parts, test := setup(t, 6, 2400, 3)
	topo := graph.RandomConnected(6, 3, rand.New(rand.NewSource(7)))
	res, err := RunPS(Config{
		Topology: topo, Model: m, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 400, Convergence: detector(), Seed: 5, EvalEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("PS did not converge in %d iterations", res.Iterations)
	}
	if res.FinalAccuracy < 0.8 {
		t.Errorf("PS accuracy = %v", res.FinalAccuracy)
	}
	if res.TotalCost <= 0 {
		t.Error("PS charged no communication cost")
	}
	// Per-round PS cost is constant (full gradients + full params).
	if res.PerRoundCost[0] != res.PerRoundCost[len(res.PerRoundCost)-1] {
		t.Errorf("PS per-round cost varies: %v vs %v",
			res.PerRoundCost[0], res.PerRoundCost[len(res.PerRoundCost)-1])
	}
	if res.Scheme != "ps" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

func TestPSMatchesCentralizedTrajectory(t *testing.T) {
	// With lossless gradient transport, PS is exactly centralized GD —
	// losses must match round for round.
	m, parts, _ := setup(t, 4, 1200, 4)
	topo := graph.Ring(4)
	ps, err := RunPS(Config{
		Topology: topo, Model: m, Partitions: parts,
		Alpha: 0.1, MaxIterations: 30,
		Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 1000},
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	central, err := RunCentralized(Config{
		Model: m, Partitions: parts,
		Alpha: 0.1, MaxIterations: 30,
		Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 1000},
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Trace.Stats) != len(central.Trace.Stats) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ps.Trace.Stats), len(central.Trace.Stats))
	}
	for i := range ps.Trace.Stats {
		a, b := ps.Trace.Stats[i].Loss, central.Trace.Stats[i].Loss
		// Same up to the per-partition averaging of gradients: PS averages
		// per-node mean gradients while centralized averages over pooled
		// samples; with unequal partitions these differ slightly, so allow
		// a modest tolerance.
		if math.Abs(a-b) > 0.05*(1+math.Abs(b)) {
			t.Fatalf("round %d: PS loss %v vs centralized %v", i, a, b)
		}
	}
}

func TestTernGradWorseThanPSInMinibatchRegime(t *testing.T) {
	// TernGrad's characteristic slowdown appears in its native minibatch
	// regime (quantization noise scales with max|∇| of a small batch).
	// Over a fixed horizon its loss stays above PS's, while its per-round
	// traffic is far smaller.
	m, parts, test := setup(t, 6, 2400, 5)
	topo := graph.RandomConnected(6, 3, rand.New(rand.NewSource(11)))
	run := func(ternary bool) *core.Result {
		r, err := RunPS(Config{
			Topology: topo, Model: m, Partitions: parts, Test: test,
			Alpha: 0.1, MaxIterations: 150,
			Convergence: metrics.ConvergenceDetector{RelTol: 1e-12, Patience: 100000},
			Seed:        13,
			Ternary:     ternary, BatchSize: 2, EvalEvery: 150,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ps := run(false)
	tern := run(true)
	if tern.Scheme != "terngrad" {
		t.Errorf("scheme = %q", tern.Scheme)
	}
	if tern.FinalLoss <= ps.FinalLoss {
		t.Errorf("TernGrad loss %v not above PS loss %v after fixed horizon",
			tern.FinalLoss, ps.FinalLoss)
	}
	// TernGrad compresses only the worker→server direction; the
	// server→worker push stays at full precision, so the per-round floor
	// sits just above half of PS's (paper §II-A makes the same point).
	if tern.PerRoundCost[0] >= 0.65*ps.PerRoundCost[0] {
		t.Errorf("TernGrad round cost %v not well below PS %v", tern.PerRoundCost[0], ps.PerRoundCost[0])
	}
}

func TestPSValidation(t *testing.T) {
	m, parts, _ := setup(t, 3, 300, 6)
	topo := graph.Ring(3)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nilTopology", Config{Model: m, Partitions: parts, Alpha: 0.1}},
		{"partitionMismatch", Config{Topology: topo, Model: m, Partitions: parts[:2], Alpha: 0.1}},
		{"nilModel", Config{Topology: topo, Partitions: parts, Alpha: 0.1}},
		{"zeroAlpha", Config{Topology: topo, Model: m, Partitions: parts}},
		{"nilPartition", Config{Topology: topo, Model: m, Partitions: []*dataset.Dataset{parts[0], nil, parts[2]}, Alpha: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunPS(tc.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	disconnected := graph.New(3)
	if _, err := RunPS(Config{Topology: disconnected, Model: m, Partitions: parts, Alpha: 0.1}); err == nil {
		t.Error("disconnected topology accepted")
	}
}

func TestTernarizeUnbiasedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := linalg.Vector{0.5, -0.25, 0.1, 0, -1.0}
	const trials = 20000
	sum := linalg.NewVector(len(g))
	for trial := 0; trial < trials; trial++ {
		q := ternarize(g, rng)
		for j, v := range q {
			if v != 0 && math.Abs(v) != 1.0 {
				t.Fatalf("ternary value %v not in {0, ±s}", v)
			}
			sum[j] += v
		}
	}
	for j := range g {
		mean := sum[j] / trials
		if math.Abs(mean-g[j]) > 0.02 {
			t.Errorf("E[ternarize] coordinate %d = %v, want %v (unbiased)", j, mean, g[j])
		}
	}
}

func TestTernarizeZeroVector(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	q := ternarize(linalg.NewVector(4), rng)
	for _, v := range q {
		if v != 0 {
			t.Fatalf("ternarize(0) produced %v", q)
		}
	}
}

// Property: ternary encode/decode round trip is lossless for ternarized
// vectors.
func TestTernaryCodecRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%50
		g := linalg.NewVector(n)
		for j := range g {
			g[j] = rng.NormFloat64()
		}
		q := ternarize(g, rng)
		frame := encodeTernary(q)
		got, err := decodeGradient(frame, n)
		if err != nil {
			return false
		}
		return got.Equal(q, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDenseCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := linalg.NewVector(17)
	for j := range g {
		g[j] = rng.NormFloat64()
	}
	frame := encodeDense(g)
	got, err := decodeGradient(frame, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g, 0) {
		t.Error("dense round trip lost data")
	}
}

func TestDecodeGradientRejectsGarbage(t *testing.T) {
	if _, err := decodeGradient(nil, 4); err == nil {
		t.Error("nil frame decoded")
	}
	if _, err := decodeGradient(make([]byte, 20), 4); err == nil {
		t.Error("wrong-length frame decoded")
	}
	bad := encodeDense(linalg.NewVector(4))
	bad[0] = 9
	if _, err := decodeGradient(bad, 4); err == nil {
		t.Error("unknown tag decoded")
	}
}

func TestTernaryFrameMuchSmallerThanDense(t *testing.T) {
	v := linalg.NewVector(1000)
	dense := encodeDense(v)
	tern := encodeTernary(v)
	// 2 bits vs 64 bits per coordinate: ~24x smaller asymptotically.
	if len(tern) >= len(dense)/10 {
		t.Errorf("ternary frame %d bytes vs dense %d — not small enough", len(tern), len(dense))
	}
}
