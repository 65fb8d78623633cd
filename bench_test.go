// Benchmark harness: one benchmark per figure of the paper's evaluation,
// plus microbenchmarks and ablations. Each figure benchmark regenerates
// the figure's series (quick workloads; use cmd/snapsim for full scale),
// prints the table once, and reports the figure's headline quantities as
// custom benchmark metrics.
//
//	go test -bench=. -benchmem
package snap_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/snapml/snap"
	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/experiments"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// figCache computes each figure once per benchmark binary run; the
// sub-benchmarks of a figure then report different series of the same
// result instead of re-running multi-second trainings.
var figCache = struct {
	mu   sync.Mutex
	done map[string]*experiments.FigResult
}{done: map[string]*experiments.FigResult{}}

func cachedFig(b *testing.B, id string, f func(experiments.Options) (*experiments.FigResult, error)) *experiments.FigResult {
	b.Helper()
	figCache.mu.Lock()
	defer figCache.mu.Unlock()
	if r, ok := figCache.done[id]; ok {
		return r
	}
	r, err := f(experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		b.Fatalf("figure %s: %v", id, err)
	}
	figCache.done[id] = r
	fmt.Print(r.Render())
	return r
}

func seriesOf(b *testing.B, fig *experiments.FigResult, table int, name string) []float64 {
	b.Helper()
	for _, s := range fig.Tables[table].Series {
		if s.Name == name {
			return s.Points
		}
	}
	b.Fatalf("table %q has no series %q", fig.Tables[table].Title, name)
	return nil
}

func lastOf(xs []float64) float64 { return xs[len(xs)-1] }

func BenchmarkFig2ParameterEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "2", experiments.Fig2)
		unchanged := seriesOf(b, fig, 0, "unchanged(|dx|=0)")
		b.ReportMetric(unchanged[0], "unchangedFracIter1")
		b.ReportMetric(lastOf(unchanged), "unchangedFracLast")
	}
}

func BenchmarkFig4aTestbedAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "4", experiments.Fig4)
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "snap")), "snapFinalAcc")
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "centralized")), "centralFinalAcc")
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "terngrad")), "terngradFinalAcc")
	}
}

func BenchmarkFig4bPerIterationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "4", experiments.Fig4)
		snap := seriesOf(b, fig, 1, "snap")
		sno := seriesOf(b, fig, 1, "sno")
		b.ReportMetric(lastOf(snap)/lastOf(sno), "snapOverSnoLastRound")
	}
}

func BenchmarkFig4cTotalCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "4", experiments.Fig4)
		b.ReportMetric(seriesOf(b, fig, 2, "snap")[0]/seriesOf(b, fig, 2, "ps")[0], "snapOverPS")
		b.ReportMetric(seriesOf(b, fig, 2, "snap")[0]/seriesOf(b, fig, 2, "snap-0")[0], "snapOverSnap0")
		b.ReportMetric(seriesOf(b, fig, 2, "sno")[0]/seriesOf(b, fig, 2, "ps")[0], "snoOverPS")
	}
}

func BenchmarkFig5WeightMatrixOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "5", experiments.Fig5)
		plain := seriesOf(b, fig, 0, "snap")
		opt := seriesOf(b, fig, 0, "snap+wopt")
		b.ReportMetric(lastOf(plain)-lastOf(opt), "iterSavedLargestNet")
	}
}

func BenchmarkFig6ConvergenceRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "6", experiments.Fig6)
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "snap")), "snapItersLargestNet")
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "terngrad")), "terngradItersLargestNet")
	}
}

func BenchmarkFig7Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "7", experiments.Fig7)
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "snap")), "snapAccLargestNet")
		b.ReportMetric(lastOf(seriesOf(b, fig, 0, "centralized")), "centralAccLargestNet")
	}
}

func BenchmarkFig8aCostVsScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "8", experiments.Fig8)
		snapCost := lastOf(seriesOf(b, fig, 0, "snap"))
		b.ReportMetric(snapCost/lastOf(seriesOf(b, fig, 0, "ps")), "snapOverPS")
		b.ReportMetric(snapCost/lastOf(seriesOf(b, fig, 0, "terngrad")), "snapOverTernGrad")
	}
}

func BenchmarkFig8bCostSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "8", experiments.Fig8)
		s := seriesOf(b, fig, 1, "snap")
		b.ReportMetric(lastOf(s)/s[0], "costMaxDegOverMinDeg")
	}
}

func BenchmarkFig8cCostDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "8", experiments.Fig8)
		s := seriesOf(b, fig, 2, "snap")
		b.ReportMetric(lastOf(s)/s[0], "costMaxDegOverMinDeg")
	}
}

func BenchmarkFig9Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := cachedFig(b, "9", experiments.Fig9)
		iters := seriesOf(b, fig, 0, "snap")
		b.ReportMetric(lastOf(iters)/iters[0], "iterOverheadAt5pct")
	}
}

// BenchmarkFrameCodec measures the wire codec itself: Diff → Encode →
// Decode → Apply round trips on a 24-parameter SVM-sized update with half
// the parameters withheld (§IV-C frame formats).
func BenchmarkFrameCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const p = 24
	baseline := make([]float64, p)
	current := make([]float64, p)
	for i := range baseline {
		baseline[i] = rng.NormFloat64()
		if i%2 == 0 {
			current[i] = baseline[i] + rng.NormFloat64()
		} else {
			current[i] = baseline[i]
		}
	}
	dst := make([]float64, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := &codec.Update{}
		if err := codec.DiffInto(u, 0, i, baseline, current, 0); err != nil {
			b.Fatal(err)
		}
		frame, _, err := codec.EncodeTo(nil, u)
		if err != nil {
			b.Fatal(err)
		}
		got := &codec.Update{}
		if err := codec.DecodeInto(got, frame); err != nil {
			b.Fatal(err)
		}
		copy(dst, baseline)
		if err := codec.Apply(dst, got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEigen measures the Jacobi eigensolver on a 60-node weight
// matrix — the inner loop of the spectral optimizer.
func BenchmarkSymEigen(b *testing.B) {
	g := graph.RandomConnected(60, 3, rand.New(rand.NewSource(2)))
	w := weights.Metropolis(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigen(w); err != nil {
			b.Fatal(err)
		}
	}
}

// digitsMLP is the paper's testbed model and one node's share of the
// digit corpus (a single gradient shard), the input of the MLP
// benchmarks below.
func digitsMLP() (model.Model, linalg.Vector, []dataset.Sample) {
	train, _ := dataset.SyntheticDigits(dataset.DigitsConfig{Train: 200, Test: 1, Side: 28}, rand.New(rand.NewSource(8)))
	m := model.NewMLP(28*28, 30, 10)
	return m, m.InitParams(9), train.Samples
}

// BenchmarkMLPGradient measures one 784-30-10 backprop sample (forward
// pass, loss and gradient terms) through model.GradientLossTo.
func BenchmarkMLPGradient(b *testing.B) {
	m, p, batch := digitsMLP()
	dst := linalg.NewVector(len(p))
	var sc model.GradScratch
	var loss float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss = model.GradientLossTo(m, dst, p, batch, &sc, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
	benchSink = loss
}

// BenchmarkMLPLoss measures one 784-30-10 forward pass plus
// cross-entropy through Model.Loss.
func BenchmarkMLPLoss(b *testing.B) {
	m, p, batch := digitsMLP()
	var loss float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss = m.Loss(p, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
	benchSink = loss
}

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink float64

// BenchmarkExtraRound measures one full simulated SNAP round (broadcast,
// integrate, EXTRA step) on a 20-node network.
func BenchmarkExtraRound(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 2000}, rng)
	parts, err := data.Partition(20, rng)
	if err != nil {
		b.Fatal(err)
	}
	res, err := snap.Train(snap.Config{
		Topology:      snap.RandomTopology(20, 3, 4),
		Model:         snap.NewLinearSVM(data.NumFeature),
		Partitions:    parts,
		Alpha:         0.1,
		Policy:        snap.SNAP,
		MaxIterations: b.N,
		Convergence:   snap.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30},
		Seed:          5,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Iterations != b.N {
		b.Fatalf("ran %d rounds, want %d", res.Iterations, b.N)
	}
	b.ReportMetric(res.TotalCost/float64(res.Iterations), "bytes/round")
}

// BenchmarkAblationWeightObjective compares the spectral objectives the
// optimizer can target (DESIGN.md §5): the figure of merit is the
// resulting λ̄max (smaller = faster mixing).
func BenchmarkAblationWeightObjective(b *testing.B) {
	g := graph.RandomConnected(40, 3, rand.New(rand.NewSource(6)))
	base, err := linalg.AnalyzeSpectrum(weights.Metropolis(g, 0))
	if err != nil {
		b.Fatal(err)
	}
	for _, obj := range []weights.Objective{
		weights.MinimizeLambdaBarMax,
		weights.MinimizeSLEM,
		weights.JointSpectral,
	} {
		b.Run(obj.String(), func(b *testing.B) {
			var lbm float64
			for i := 0; i < b.N; i++ {
				res, err := weights.Optimize(g, obj, weights.Options{Iterations: 150, Step: 3})
				if err != nil {
					b.Fatal(err)
				}
				lbm = res.Spectrum.LambdaBarMax
			}
			b.ReportMetric(lbm, "lambdaBarMax")
			b.ReportMetric(base.LambdaBarMax, "metropolisLambdaBarMax")
		})
	}
}

// BenchmarkAblationAPESchedule sweeps the APE initial-threshold fraction
// (paper default 0.1): larger thresholds trade accuracy for traffic.
func BenchmarkAblationAPESchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 4000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(4, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		b.Run(fmt.Sprintf("fraction=%.1f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := snap.Train(snap.Config{
					Topology:      snap.CompleteTopology(4),
					Model:         snap.NewLinearSVM(data.NumFeature),
					Partitions:    parts,
					Test:          test,
					Alpha:         0.1,
					Policy:        snap.SNAP,
					APE:           snap.APEConfig{InitialFraction: frac},
					MaxIterations: 300,
					Convergence:   metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.01},
					Seed:          8,
					EvalEvery:     100,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TotalCost, "totalCost")
				b.ReportMetric(res.FinalAccuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationRecursionRestart compares the two readings of
// Algorithm 1's stage transition (continue vs restart the EXTRA
// recursion); restarting suppresses the late-training send decay.
func BenchmarkAblationRecursionRestart(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 4000}, rng)
	parts, err := data.Partition(4, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, restart := range []bool{false, true} {
		b.Run(fmt.Sprintf("restart=%v", restart), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := snap.Train(snap.Config{
					Topology:      snap.CompleteTopology(4),
					Model:         snap.NewLinearSVM(data.NumFeature),
					Partitions:    parts,
					Alpha:         0.1,
					Policy:        snap.SNAP,
					APE:           snap.APEConfig{RestartRecursion: restart},
					MaxIterations: 250,
					Convergence:   metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30},
					Seed:          10,
				})
				if err != nil {
					b.Fatal(err)
				}
				late := res.PerRoundCost[len(res.PerRoundCost)-1]
				b.ReportMetric(late, "lastRoundBytes")
				b.ReportMetric(res.TotalCost, "totalCost")
			}
		})
	}
}

// BenchmarkAblationDataHeterogeneity contrasts IID random splits with
// Dirichlet label-skewed shards (the heterogeneous edge-data regime the
// paper motivates): under skew the nodes genuinely disagree and network
// mixing becomes the bottleneck.
func BenchmarkAblationDataHeterogeneity(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	train, test := snap.SyntheticDigits(snap.DigitsConfig{Train: 1200, Test: 300, Side: 12, Noise: 0.3}, rng)
	model := snap.NewMLP(train.NumFeature, 16, 10)
	topo := snap.RandomTopology(6, 3, 12)

	for _, tc := range []struct {
		name  string
		parts func() []*snap.Dataset
	}{
		{"iid", func() []*snap.Dataset {
			parts, err := train.Partition(6, rand.New(rand.NewSource(13)))
			if err != nil {
				b.Fatal(err)
			}
			return parts
		}},
		{"dirichlet0.2", func() []*snap.Dataset {
			parts, err := train.PartitionNonIID(6, 0.2, rand.New(rand.NewSource(13)))
			if err != nil {
				b.Fatal(err)
			}
			return parts
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			parts := tc.parts()
			for i := 0; i < b.N; i++ {
				res, err := snap.Train(snap.Config{
					Topology: topo, Model: model, Partitions: parts, Test: test,
					Alpha: 0.3, Policy: snap.SNAP0, MaxIterations: 60,
					Convergence: metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30},
					Seed:        14, EvalEvery: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalAccuracy, "accuracy")
				if stat, ok := res.Trace.Last(); ok {
					b.ReportMetric(stat.Consensus, "consensusResidual")
				}
			}
		})
	}
}

// BenchmarkAblationFloat32Wire measures the float32 wire extension: the
// same SNAP run with 64-bit vs 32-bit value encoding. Accuracy is
// unaffected (rounding ~1e-7 is far below the APE thresholds); bytes drop
// by roughly a third to a half depending on frame mix.
func BenchmarkAblationFloat32Wire(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 4000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(6, rand.New(rand.NewSource(16)))
	if err != nil {
		b.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		b.Run(fmt.Sprintf("float32=%v", f32), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := snap.Train(snap.Config{
					Topology:      snap.RandomTopology(6, 3, 17),
					Model:         snap.NewLinearSVM(data.NumFeature),
					Partitions:    parts,
					Test:          test,
					Alpha:         0.1,
					Policy:        snap.SNAP,
					Float32Wire:   f32,
					MaxIterations: 200,
					Convergence:   metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.01},
					Seed:          18,
					EvalEvery:     100,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TotalCost, "totalCost")
				b.ReportMetric(res.FinalAccuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationTopologyFamily runs SNAP across topology families at
// equal edge budgets: random, small-world, scale-free, ring. Real edge
// deployments are rarely uniform-random; the family determines mixing
// speed and therefore iterations and cost.
func BenchmarkAblationTopologyFamily(b *testing.B) {
	const servers = 24
	rng := rand.New(rand.NewSource(19))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 5000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(servers, rand.New(rand.NewSource(20)))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo *snap.Topology
	}{
		{"random-deg4", snap.RandomTopology(servers, 4, 21)},
		{"small-world", snap.SmallWorldTopology(servers, 4, 0.3, 21)},
		{"scale-free", snap.ScaleFreeTopology(servers, 2, 21)},
		{"ring", snap.RingTopology(servers)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := snap.Train(snap.Config{
					Topology:      tc.topo,
					Model:         snap.NewLinearSVM(data.NumFeature),
					Partitions:    parts,
					Test:          test,
					Alpha:         0.1,
					Policy:        snap.SNAP,
					PerNodeInit:   true,
					MaxIterations: 400,
					Convergence:   metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.005},
					Seed:          22,
					EvalEvery:     100,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iterations")
				b.ReportMetric(res.TotalCost, "totalCost")
				b.ReportMetric(res.FinalAccuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationDGDvsEXTRA contrasts the inexact classic decentralized
// gradient descent with EXTRA (SNAP-0) on label-skewed shards: both learn,
// but DGD's consensus disagreement stalls at O(α·heterogeneity) while
// EXTRA's decays to numerical zero — the property that justifies the
// paper's choice of EXTRA.
func BenchmarkAblationDGDvsEXTRA(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 3000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.PartitionNonIID(6, 0.2, rng)
	if err != nil {
		b.Fatal(err)
	}
	topo := snap.RandomTopology(6, 3, 24)
	noStop := metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30}
	dgd := snap.Config{
		Topology: topo, Model: snap.NewLinearSVM(data.NumFeature), Partitions: parts, Test: test,
		Alpha: 0.1, Policy: snap.SNO, DGD: true, MaxIterations: 300,
		Convergence: noStop, EvalEvery: 100, Seed: 25,
	}
	b.Run("dgd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := snap.Train(dgd)
			if err != nil {
				b.Fatal(err)
			}
			if stat, ok := res.Trace.Last(); ok {
				b.ReportMetric(stat.Consensus, "finalConsensus")
			}
			b.ReportMetric(res.FinalAccuracy, "accuracy")
		}
	})
	b.Run("extra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := snap.Train(snap.Config{
				Topology: topo, Model: dgd.Model, Partitions: parts, Test: test,
				Alpha: 0.1, Policy: snap.SNAP0, MaxIterations: 300,
				Convergence: noStop, EvalEvery: 100, Seed: 25,
			})
			if err != nil {
				b.Fatal(err)
			}
			if stat, ok := res.Trace.Last(); ok {
				b.ReportMetric(stat.Consensus, "finalConsensus")
			}
			b.ReportMetric(res.FinalAccuracy, "accuracy")
		}
	})
}
