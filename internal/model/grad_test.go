package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

func gradTestBatch(n, features, classes int, seed int64) []dataset.Sample {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]dataset.Sample, n)
	for i := range batch {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		batch[i] = dataset.Sample{X: x, Label: rng.Intn(classes)}
	}
	return batch
}

// gradient is ∇Loss(p) on batch as a fresh vector.
func gradient(m Model, p linalg.Vector, batch []dataset.Sample) linalg.Vector {
	return GradientTo(m, linalg.NewVector(m.NumParams()), p, batch, nil, 1)
}

func bitsDiffer(v, w linalg.Vector) int {
	if len(v) != len(w) {
		return -1
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
			return i
		}
	}
	return len(v)
}

// TestGradientToDeterministicAcrossWorkers is the tentpole determinism
// guarantee: the sharded parallel gradient must be bitwise-identical to
// the serial one for every worker count, because the shard decomposition
// and the pairwise reduction shape depend only on the batch length.
func TestGradientToDeterministicAcrossWorkers(t *testing.T) {
	models := []struct {
		name string
		m    Model
	}{
		{"svm", NewLinearSVM(12)},
		{"mlp", NewMLP(12, 6, 4)},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			// 3.5 shards, so the tree reduction is non-trivial.
			batch := gradTestBatch(3*GradShardSize+GradShardSize/2, 12, 4, 42)
			params := tc.m.InitParams(7)
			p := tc.m.NumParams()

			ref := GradientTo(tc.m, linalg.NewVector(p), params, batch, nil, 1)
			for _, workers := range []int{2, 3, 8, 64} {
				var sc GradScratch
				got := GradientTo(tc.m, linalg.NewVector(p), params, batch, &sc, workers)
				if at := bitsDiffer(ref, got); at != p {
					t.Errorf("workers=%d: gradient differs from serial at index %d", workers, at)
				}
			}
		})
	}
}

// TestGradientToMatchesNumerical sanity-checks the accumulator refactor
// against central finite differences (the rescaled summation must still
// be the same mathematical gradient).
func TestGradientToMatchesNumerical(t *testing.T) {
	m := NewLinearSVM(5)
	batch := gradTestBatch(40, 5, 2, 3)
	params := m.InitParams(9)
	g := gradient(m, params, batch)
	const h = 1e-6
	for i := range params {
		pp := params.Clone()
		pp[i] += h
		pm := params.Clone()
		pm[i] -= h
		num := (m.Loss(pp, batch) - m.Loss(pm, batch)) / (2 * h)
		if math.Abs(num-g[i]) > 1e-5 {
			t.Errorf("param %d: analytic %g vs numerical %g", i, g[i], num)
		}
	}
}

// TestGradientToEmptyAndFallback covers the degenerate batch and the
// nil-scratch fallback, which builds a fresh GradScratch per call.
func TestGradientToEmptyAndFallback(t *testing.T) {
	m := NewLinearSVM(6)
	params := m.InitParams(1)
	g := GradientTo(m, linalg.NewVector(6), params, nil, nil, 4)
	want := linalg.ScaleTo(linalg.NewVector(6), m.Lambda, params)
	if at := bitsDiffer(g, want); at != 6 {
		t.Errorf("empty-batch gradient differs from λw at %d", at)
	}

	// A nil scratch gives the same bits as a reused warm one.
	batch := gradTestBatch(3*GradShardSize+5, 6, 2, 5)
	var sc GradScratch
	warm := linalg.NewVector(6)
	GradientTo(m, warm, params, batch, &sc, 1)
	GradientTo(m, warm, params, batch, &sc, 1)
	got := GradientTo(m, linalg.NewVector(6), params, batch, nil, 4)
	if at := bitsDiffer(got, warm); at != 6 {
		t.Errorf("nil-scratch gradient differs from warm-scratch gradient at %d", at)
	}
}

// TestGradientToSerialAllocFree pins the hot-path budget: with a warm
// scratch, the serial sharded gradient (with and without the loss it
// yields) performs zero allocations, for every built-in model.
func TestGradientToSerialAllocFree(t *testing.T) {
	for _, tc := range predictModels() {
		params := tc.m.InitParams(2)
		batch := gradTestBatch(2*GradShardSize, tc.features, 2, 6)
		dst := linalg.NewVector(tc.m.NumParams())
		var sc GradScratch
		GradientTo(tc.m, dst, params, batch, &sc, 1) // warm the scratch
		if n := testing.AllocsPerRun(20, func() {
			GradientTo(tc.m, dst, params, batch, &sc, 1)
			GradientLossTo(tc.m, dst, params, batch, &sc, 1)
		}); n != 0 {
			t.Errorf("%s: serial GradientTo/GradientLossTo allocated %v times per run, want 0", tc.name, n)
		}
	}
}

// TestLossAllocFree is the same budget for Model.Loss, whose workspace
// comes from the package pool: zero allocations once the pool is warm.
func TestLossAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, tc := range predictModels() {
		params := tc.m.InitParams(2)
		batch := gradTestBatch(GradShardSize, tc.features, 2, 6)
		tc.m.Loss(params, batch) // warm the pool
		if n := testing.AllocsPerRun(20, func() {
			tc.m.Loss(params, batch)
		}); n != 0 {
			t.Errorf("%s: Loss allocated %v times per run, want 0", tc.name, n)
		}
	}
}
