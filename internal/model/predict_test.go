package model

import (
	"math/rand"
	"testing"
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

// predictModels is the full built-in model zoo with a feature dimension
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
		{"logreg", NewLogisticRegression(24), 24},
		{"softmax", NewSoftmaxRegression(16, 10), 16},
		{"mlp", NewMLP(16, 8, 10), 16},
	}
}

// TestPredictBatchIntoMatchesPredict pins the batch path to the reference
// Predict implementation for every built-in model: the serving gateway
// swaps one for the other, so any divergence is a silent model change.
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
			if want := tc.m.Predict(params, x); got[i] != want {
				t.Errorf("%s: row %d: PredictBatchInto = %d, Predict = %d", tc.name, i, got[i], want)
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
		if want := m.Predict(params, x); got[i] != want {
			t.Fatalf("row %d: got %d, want %d", i, got[i], want)
		}
	}
}

// TestPredictBatchIntoFallback checks models without the capability run
// through Model.Predict. The anonymous wrapper promotes only the Model
// methods, so the BatchPredictor type assertion fails while Predict
// still works.
func TestPredictBatchIntoFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inner := NewLinearSVM(8)
	var m Model = struct{ Model }{inner} // interface wrapper: no PredictInto
	params := inner.InitParams(4)
	xs := randomRows(rng, 16, 8)
	dst := make([]int, len(xs))
	got := PredictBatchInto(m, dst, params, xs, nil)
	for i, x := range xs {
		if want := inner.Predict(params, x); got[i] != want {
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
