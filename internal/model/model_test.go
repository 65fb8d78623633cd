package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// numericalGradCheck verifies the gradient against central finite differences
// on a random batch and random parameter point.
func numericalGradCheck(t *testing.T, m Model, batch []dataset.Sample, tol float64) {
	t.Helper()
	p := m.InitParams(123)
	analytic := gradient(m, p, batch)
	const h = 1e-6
	// Check a sample of coordinates (all if small).
	step := 1
	if m.NumParams() > 200 {
		step = m.NumParams() / 97
	}
	for i := 0; i < m.NumParams(); i += step {
		orig := p[i]
		p[i] = orig + h
		up := m.Loss(p, batch)
		p[i] = orig - h
		down := m.Loss(p, batch)
		p[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic[i]) > tol*(1+math.Abs(numeric)) {
			t.Errorf("param %d: analytic grad %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func creditBatch(n int, seed int64) []dataset.Sample {
	ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: n, Features: 10},
		rand.New(rand.NewSource(seed)))
	return ds.Samples
}

func TestSVMGradientNumerical(t *testing.T) {
	m := NewLinearSVM(10)
	// The hinge is non-differentiable exactly at margin 1, but random data
	// almost surely avoids that point.
	numericalGradCheck(t, m, creditBatch(20, 1), 1e-4)
}

func TestMLPGradientNumerical(t *testing.T) {
	m := NewMLP(16, 5, 3)
	rng := rand.New(rand.NewSource(3))
	batch := make([]dataset.Sample, 8)
	for i := range batch {
		x := make([]float64, 16)
		for j := range x {
			x[j] = rng.Float64()
		}
		batch[i] = dataset.Sample{X: x, Label: rng.Intn(3)}
	}
	numericalGradCheck(t, m, batch, 1e-3)
}

func TestSVMTrainsOnSeparableData(t *testing.T) {
	// Clearly separable 2-D data: label = x0 > 0.
	rng := rand.New(rand.NewSource(4))
	var samples []dataset.Sample
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		label := 0
		if x[0] > 0 {
			label = 1
		}
		// Margin gap.
		if math.Abs(x[0]) < 0.2 {
			continue
		}
		samples = append(samples, dataset.Sample{X: x, Label: label})
	}
	ds := &dataset.Dataset{Samples: samples, NumFeature: 2, NumClasses: 2}
	m := NewLinearSVM(2)
	w := m.InitParams(5)
	for step := 0; step < 300; step++ {
		g := gradient(m, w, ds.Samples)
		w.AXPYInPlace(-0.1, g)
	}
	if acc := Accuracy(m, w, ds); acc < 0.97 {
		t.Errorf("SVM accuracy on separable data = %v, want ≥ 0.97", acc)
	}
}

func TestMLPTrainsOnDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping MLP training in -short mode")
	}
	rng := rand.New(rand.NewSource(8))
	train, test := dataset.SyntheticDigits(
		dataset.DigitsConfig{Train: 1500, Test: 300, Side: 12, Noise: 0.2}, rng)
	m := NewMLP(train.NumFeature, 20, 10)
	p := m.InitParams(9)
	for step := 0; step < 400; step++ {
		g := gradient(m, p, train.Batch(step, 64))
		p.AXPYInPlace(-0.5, g)
	}
	if acc := Accuracy(m, p, test); acc < 0.8 {
		t.Errorf("MLP test accuracy = %v, want ≥ 0.8", acc)
	}
}

func TestNumParams(t *testing.T) {
	if got := NewMLP(784, 30, 10).NumParams(); got != 784*30+30+30*10+10 {
		t.Errorf("MLP params = %d, want 23860", got)
	}
	if got := NewLinearSVM(24).NumParams(); got != 24 {
		t.Errorf("SVM params = %d, want 24 (paper: 24 parameters per SVM)", got)
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	for _, m := range []Model{NewLinearSVM(5), NewMLP(4, 3, 2)} {
		a, b := m.InitParams(42), m.InitParams(42)
		if !a.Equal(b, 0) {
			t.Errorf("%s: InitParams not deterministic", m.Name())
		}
		c := m.InitParams(43)
		if a.Equal(c, 0) {
			t.Errorf("%s: different seeds produced identical params", m.Name())
		}
	}
}

// TestMLPInitParamsInputMajor pins where InitParams puts W1: the seed's
// draws come hidden unit by hidden unit, and draw h·In+j, W1[h][j], sits
// at j·Hidden+h; the rest follow in order.
func TestMLPInitParamsInputMajor(t *testing.T) {
	for _, shape := range [][3]int{{784, 30, 10}, {5, 3, 2}, {7, 1, 4}} {
		m := NewMLP(shape[0], shape[1], shape[2])
		p := m.InitParams(42)
		rng := rand.New(rand.NewSource(42))
		lim1 := math.Sqrt(6 / float64(m.In+m.Hidden))
		for h := 0; h < m.Hidden; h++ {
			for j := 0; j < m.In; j++ {
				if want := lim1 * (2*rng.Float64() - 1); math.Float64bits(p[j*m.Hidden+h]) != math.Float64bits(want) {
					t.Fatalf("%s: p[%d] = %v, want draw %d = %v", m.Name(), j*m.Hidden+h, p[j*m.Hidden+h], h*m.In+j, want)
				}
			}
		}
		_, b1, w2, b2 := m.offsets()
		lim2 := math.Sqrt(6 / float64(m.Hidden+m.Out))
		for i := range p[b1:] {
			want := 0.0
			if b1+i >= w2 && b1+i < b2 {
				want = lim2 * (2*rng.Float64() - 1)
			}
			if math.Float64bits(p[b1+i]) != math.Float64bits(want) {
				t.Fatalf("%s: p[%d] = %v, want %v", m.Name(), b1+i, p[b1+i], want)
			}
		}
	}
}

func TestGradientDimensionPanics(t *testing.T) {
	for _, m := range []Model{NewLinearSVM(5), NewMLP(4, 3, 2)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: wrong-dim params did not panic", m.Name())
				}
			}()
			gradient(m, linalg.NewVector(1), nil)
		}()
	}
}

func TestEmptyBatchGradient(t *testing.T) {
	m := NewMLP(4, 3, 2)
	params := m.InitParams(1)
	dst := linalg.NewVector(m.NumParams())
	dst.Fill(7) // stale contents must be overwritten
	// The MLP is unregularized: nothing contributes.
	if loss := GradientLossTo(m, dst, params, nil, nil, 4); loss != 0 {
		t.Errorf("empty-batch loss = %v, want 0", loss)
	}
	if at := bitsDiffer(dst, linalg.NewVector(m.NumParams())); at != len(dst) {
		t.Errorf("empty-batch gradient nonzero at %d", at)
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	m := NewLinearSVM(2)
	if got := Accuracy(m, m.InitParams(1), &dataset.Dataset{NumFeature: 2}); got != 0 {
		t.Errorf("accuracy on empty dataset = %v, want 0", got)
	}
}

func TestPredictLabelsInRange(t *testing.T) {
	m := NewMLP(6, 4, 3)
	p := m.InitParams(11)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if got := predict(m, p, x); got < 0 || got >= 3 {
			t.Fatalf("Predict = %d out of range", got)
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if v := sigmoid(1000); v != 1 {
		t.Errorf("sigmoid(1000) = %v, want 1", v)
	}
	if v := sigmoid(-1000); v != 0 {
		t.Errorf("sigmoid(-1000) = %v, want 0", v)
	}
	if v := sigmoid(0); v != 0.5 {
		t.Errorf("sigmoid(0) = %v, want 0.5", v)
	}
}

func TestSoftmaxNormalized(t *testing.T) {
	probs := []float64{1000, 999, 998}
	softmaxInPlace(probs)
	var sum float64
	for _, p := range probs {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("softmax produced %v", probs)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	if probs[0] <= probs[1] || probs[1] <= probs[2] {
		t.Errorf("softmax not order preserving: %v", probs)
	}
}

func TestMeanLossMatchesLoss(t *testing.T) {
	m := NewLinearSVM(10)
	batch := creditBatch(30, 20)
	ds := &dataset.Dataset{Samples: batch, NumFeature: 10, NumClasses: 2}
	p := m.InitParams(21)
	if got, want := MeanLoss(m, p, ds), m.Loss(p, batch); got != want {
		t.Errorf("MeanLoss = %v, Loss = %v", got, want)
	}
}
