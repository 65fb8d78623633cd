package model

import (
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/linalg"
)

// randomRows builds n feature rows of dimension d.
func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		xs[i] = row
	}
	return xs
}

// predict is the label of one row, predicted in a fresh scratch.
func predict(m Model, p linalg.Vector, x []float64) int {
	var sc Scratch
	return m.PredictInto(p, x, sc.ensure(m.ScratchSize()))
}

// predictModels is both built-in models with a feature dimension
// for test inputs.
func predictModels() []struct {
	name     string
	m        Model
	features int
} {
	return []struct {
		name     string
		m        Model
		features int
	}{
		{"svm", NewLinearSVM(24), 24},
		{"mlp", NewMLP(16, 8, 10), 16},
	}
}

// TestPredictBatchIntoMatchesPredict pins the batch path, which reuses
// one scratch across rows, to a fresh-scratch prediction of each row for
// every built-in model: a scratch that carried state from one row to the
// next would be a silent model change.
func TestPredictBatchIntoMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range predictModels() {
		params := tc.m.InitParams(7)
		xs := randomRows(rng, 64, tc.features)
		dst := make([]int, len(xs))
		var sc PredictScratch
		got := PredictBatchInto(tc.m, dst, params, xs, &sc)
		if len(got) != len(xs) {
			t.Fatalf("%s: PredictBatchInto returned %d labels for %d rows", tc.name, len(got), len(xs))
		}
		for i, x := range xs {
			if want := predict(tc.m, params, x); got[i] != want {
				t.Errorf("%s: row %d: PredictBatchInto = %d, PredictInto = %d", tc.name, i, got[i], want)
			}
		}
	}
}

// TestPredictBatchIntoNilScratch covers the convenience path: a nil
// scratch must still produce correct labels.
func TestPredictBatchIntoNilScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(16, 8, 10)
	params := m.InitParams(3)
	xs := randomRows(rng, 8, 16)
	dst := make([]int, len(xs))
	got := PredictBatchInto(m, dst, params, xs, nil)
	for i, x := range xs {
		if want := predict(m, params, x); got[i] != want {
			t.Fatalf("row %d: got %d, want %d", i, got[i], want)
		}
	}
}

// TestPredictBatchIntoAllocFree is the steady-state allocation budget of
// the serving hot path's compute kernel: zero allocations per batch once
// the scratch is warm, for every built-in model.
func TestPredictBatchIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range predictModels() {
		params := tc.m.InitParams(5)
		xs := randomRows(rng, 32, tc.features)
		dst := make([]int, len(xs))
		var sc PredictScratch
		PredictBatchInto(tc.m, dst, params, xs, &sc) // warm the scratch
		allocs := testing.AllocsPerRun(100, func() {
			PredictBatchInto(tc.m, dst, params, xs, &sc)
		})
		if allocs != 0 {
			t.Errorf("%s: PredictBatchInto allocates %.1f/op in steady state, want 0", tc.name, allocs)
		}
	}
}
