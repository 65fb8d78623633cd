package weights

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
)

func TestMetropolisDoublyStochastic(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"ring10":    graph.Ring(10),
		"star6":     graph.Star(6),
		"complete5": graph.Complete(5),
		"random":    graph.RandomConnected(20, 3, rand.New(rand.NewSource(1))),
	}
	for name, g := range topologies {
		t.Run(name, func(t *testing.T) {
			w := Metropolis(g, 1e-3)
			if !w.IsSymmetric(1e-12) {
				t.Error("Metropolis matrix not symmetric")
			}
			if !w.IsDoublyStochastic(1e-9) {
				t.Error("Metropolis matrix not doubly stochastic")
			}
			// Sparsity: w_ij nonzero only on edges (or diagonal).
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if i != j && !g.HasEdge(i, j) && w.At(i, j) != 0 {
						t.Errorf("w[%d][%d] = %v off the support", i, j, w.At(i, j))
					}
				}
			}
		})
	}
}

func TestMetropolisDefaultEps(t *testing.T) {
	g := graph.Ring(4)
	w := Metropolis(g, 0) // eps <= 0 replaced by default
	if !w.IsDoublyStochastic(1e-9) {
		t.Error("default-eps matrix not doubly stochastic")
	}
	// Diagonal strictly positive thanks to eps.
	for i := 0; i < 4; i++ {
		if w.At(i, i) <= 0 {
			t.Errorf("diagonal entry %d = %v not positive", i, w.At(i, i))
		}
	}
}

func TestMetropolisKnownValuesRing(t *testing.T) {
	// On a ring all degrees are 2, so each edge weight is 1/(2+eps).
	g := graph.Ring(5)
	eps := 0.5
	w := Metropolis(g, eps)
	want := 1 / (2 + eps)
	if got := w.At(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("edge weight = %v, want %v", got, want)
	}
	if got := w.At(0, 0); math.Abs(got-(1-2*want)) > 1e-12 {
		t.Errorf("diagonal = %v, want %v", got, 1-2*want)
	}
}

func TestOptimizeImprovesSpectralGap(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		// strict: the graph is irregular enough that Metropolis is
		// suboptimal and the optimizer must strictly improve λ̄max. On
		// regular degree-2 graphs (rings) uniform weights are already
		// optimal — the paper observes the same in Fig. 5(b).
		strict bool
	}{
		{"ring12", graph.Ring(12), false},
		{"random30deg3", graph.RandomConnected(30, 3, rand.New(rand.NewSource(7))), true},
		{"random20deg4", graph.RandomConnected(20, 4, rand.New(rand.NewSource(9))), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := linalg.AnalyzeSpectrum(Metropolis(tc.g, 1e-3))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(tc.g, MinimizeLambdaBarMax, Options{Iterations: 150})
			if err != nil {
				t.Fatal(err)
			}
			if tc.strict && res.Spectrum.LambdaBarMax >= base.LambdaBarMax {
				t.Errorf("optimizer did not reduce λ̄max: %v >= %v",
					res.Spectrum.LambdaBarMax, base.LambdaBarMax)
			}
			if res.Spectrum.LambdaBarMax > base.LambdaBarMax+1e-12 {
				t.Errorf("optimizer worsened λ̄max: %v > %v",
					res.Spectrum.LambdaBarMax, base.LambdaBarMax)
			}
			if !res.W.IsDoublyStochastic(1e-8) {
				t.Error("optimized matrix not doubly stochastic")
			}
			if !res.W.IsSymmetric(1e-12) {
				t.Error("optimized matrix not symmetric")
			}
		})
	}
}

func TestOptimizeSLEM(t *testing.T) {
	g := graph.RandomConnected(25, 3, rand.New(rand.NewSource(21)))
	base, err := linalg.AnalyzeSpectrum(Metropolis(g, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(g, MinimizeSLEM, Options{Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum.SLEM > base.SLEM+1e-12 {
		t.Errorf("optimizer increased SLEM: %v > %v", res.Spectrum.SLEM, base.SLEM)
	}
}

func TestOptimizePreservesSupport(t *testing.T) {
	g := graph.RandomConnected(15, 3, rand.New(rand.NewSource(4)))
	res, err := Optimize(g, MinimizeLambdaBarMax, Options{Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if i != j && !g.HasEdge(i, j) && res.W.At(i, j) != 0 {
				t.Fatalf("optimized W[%d][%d] = %v outside support", i, j, res.W.At(i, j))
			}
		}
	}
}

func TestOptimizeEmptyGraph(t *testing.T) {
	if _, err := Optimize(graph.New(0), MinimizeLambdaBarMax, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestOptimizeCompleteGraphNearIdealMixing(t *testing.T) {
	// On K_n the optimum of problem (21) is W = J/n with λ̄max = 0 (within
	// subgradient accuracy).
	g := graph.Complete(6)
	res, err := Optimize(g, MinimizeLambdaBarMax, Options{Iterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum.LambdaBarMax > 0.12 {
		t.Errorf("K6 optimized λ̄max = %v, want near 0", res.Spectrum.LambdaBarMax)
	}
}

func TestObjectiveString(t *testing.T) {
	for _, tc := range []struct {
		o    Objective
		want string
	}{
		{MinimizeLambdaBarMax, "min-lambda-bar-max"},
		{MinimizeSLEM, "min-slem"},
		{JointSpectral, "joint-spectral"},
		{MetropolisBaseline, "metropolis"},
		{Objective(99), "Objective(99)"},
	} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.o), got, tc.want)
		}
	}
}

// Property: projection always yields a doubly stochastic matrix regardless
// of the raw edge weights.
func TestProjectionProperty(t *testing.T) {
	g := graph.RandomConnected(12, 3, rand.New(rand.NewSource(2)))
	edges := g.Edges()
	f := func(raw []float64) bool {
		w := make([]float64, len(edges))
		for k := range w {
			if k < len(raw) && !math.IsNaN(raw[k]) && !math.IsInf(raw[k], 0) {
				w[k] = math.Mod(raw[k], 3) // keep magnitudes sane
			}
		}
		projectFeasible(g.N(), edges, w)
		return buildMatrix(g.N(), edges, w).IsDoublyStochastic(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaBoundMonotoneInGap(t *testing.T) {
	// A smaller λ̄max (bigger spectral gap) must not decrease the bound.
	fast := &linalg.Spectrum{LambdaBarMax: 0.2, LambdaMin: 0.1}
	slow := &linalg.Spectrum{LambdaBarMax: 0.9, LambdaMin: 0.1}
	p := BoundParams{}
	if DeltaBound(fast, p) <= DeltaBound(slow, p) {
		t.Errorf("DeltaBound(fast)=%v <= DeltaBound(slow)=%v",
			DeltaBound(fast, p), DeltaBound(slow, p))
	}
}

func TestDeltaBoundDefaults(t *testing.T) {
	sp := &linalg.Spectrum{LambdaBarMax: 0.5, LambdaMin: -0.2}
	if d := DeltaBound(sp, BoundParams{}); d <= 0 {
		t.Errorf("default-parameter bound = %v, want positive", d)
	}
}

func TestOptimizeBestReturnsValidMatrix(t *testing.T) {
	g := graph.RandomConnected(20, 3, rand.New(rand.NewSource(13)))
	res, err := OptimizeBest(g, BoundParams{}, Options{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.W.IsDoublyStochastic(1e-8) {
		t.Error("OptimizeBest matrix not doubly stochastic")
	}
	// It should be at least as good as Metropolis under the bound.
	base, err := linalg.AnalyzeSpectrum(Metropolis(g, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if DeltaBound(res.Spectrum, BoundParams{}) < DeltaBound(base, BoundParams{})-1e-12 {
		t.Error("OptimizeBest selected a matrix worse than the Metropolis baseline")
	}
}

// TestOptimizeBestNeverSelectsGaplessMatrix covers α = 0.1, where the
// Metropolis matrices of ring12 and path-5 have λmin < 2αL_f²/η − 1 and so
// a negative eq. (17) bound. A matrix without a spectral gap such as
// W = I (λ̄max = 1, bound exactly 0) would win that comparison on the
// bound alone, although it does not mix.
func TestOptimizeBestNeverSelectsGaplessMatrix(t *testing.T) {
	path5 := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		path5.AddEdge(i, i+1)
	}
	p := BoundParams{Alpha: 0.1}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"ring12", graph.Ring(12), Options{}},
		{"path5", path5, Options{Iterations: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := OptimizeBest(tc.g, p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Spectrum.LambdaBarMax >= 1-1e-9 {
				t.Errorf("selected %v with λ̄max = %v: no spectral gap", res.Objective, res.Spectrum.LambdaBarMax)
			}
			base, err := linalg.AnalyzeSpectrum(Metropolis(tc.g, 0))
			if err != nil {
				t.Fatal(err)
			}
			if DeltaBound(res.Spectrum, p) < DeltaBound(base, p) {
				t.Errorf("selected bound %v below Metropolis's %v", DeltaBound(res.Spectrum, p), DeltaBound(base, p))
			}
			if !res.W.IsDoublyStochastic(1e-8) {
				t.Error("selected matrix not doubly stochastic")
			}
		})
	}
}
