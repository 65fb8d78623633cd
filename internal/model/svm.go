package model

import (
	"fmt"
	"math/rand"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// LinearSVM is a binary L2-regularized squared-hinge (L2-SVM) classifier
// with no bias term, so a d-feature task has exactly d parameters —
// matching the paper's "24 parameters in each SVM model" for the
// 24-feature credit data. The squared hinge is used instead of the plain
// hinge because its gradient is Lipschitz, which the EXTRA convergence
// theory (paper Theorem 1 and the rate bound eq. 17) assumes; with the
// non-smooth hinge the iterates jitter at a subgradient-sized floor and
// parameter changes never decay, defeating the paper's premise that
// almost all parameters stop changing near convergence (Fig. 2).
// Labels must be 0 (negative) or 1 (positive).
type LinearSVM struct {
	// Features is the input dimensionality d.
	Features int
	// Lambda is the L2 regularization strength (default 1e-3 if zero).
	Lambda float64
}

var _ Model = (*LinearSVM)(nil)

// NewLinearSVM returns a LinearSVM for d features with the default
// regularization.
func NewLinearSVM(d int) *LinearSVM { return &LinearSVM{Features: d, Lambda: 1e-3} }

// Name implements Model.
func (m *LinearSVM) Name() string { return "linear-svm" }

// NumParams implements Model.
func (m *LinearSVM) NumParams() int { return m.Features }

func (m *LinearSVM) lambda() float64 {
	if m.Lambda <= 0 {
		return 1e-3
	}
	return m.Lambda
}

// Loss implements Model: (λ/2)||w||² + mean squared-hinge loss
// max(0, 1−y·w·x)².
func (m *LinearSVM) Loss(w linalg.Vector, batch []dataset.Sample) float64 {
	m.checkDim(w)
	loss := m.lambda() / 2 * w.Dot(w)
	if len(batch) == 0 {
		return loss
	}
	return loss + m.AccumGrad(nil, w, batch, nil)/float64(len(batch))
}

// AccumGrad implements Model and is the model's one pass over
// a batch: it returns the unscaled hinge sum Σ max(0, 1−y·w·x)² and,
// unless dst is nil (Loss), subtracts every violating sample's gradient
// term 2·max(0, 1−y·w·x)·y·x from dst (GradientLossTo applies the 1/m).
// The margins of four samples are computed side by side and violators'
// rows are added to dst four at a time; both sums run in batch order.
func (m *LinearSVM) AccumGrad(dst, w linalg.Vector, batch []dataset.Sample, _ *Scratch) float64 {
	var hinge float64
	q := violators{dst: dst}
	for ; len(batch) >= 4; batch = batch[4:] {
		z0, z1, z2, z3 := linalg.Dots4From(0, 0, 0, 0, batch[0].X, batch[1].X, batch[2].X, batch[3].X, w)
		hinge += q.term(batch[0], z0)
		hinge += q.term(batch[1], z1)
		hinge += q.term(batch[2], z2)
		hinge += q.term(batch[3], z3)
	}
	for _, s := range batch {
		hinge += q.term(s, linalg.Vector(s.X).Dot(w))
	}
	for k := 0; k < q.n; k++ {
		dst.AXPYInPlace(q.c[k], q.x[k])
	}
	return hinge
}

// violators queues the gradient rows of AccumGrad's margin violators in
// batch order and adds them to dst four at a time; the caller adds the
// 0–3 left at the end one by one.
type violators struct {
	dst linalg.Vector // nil: loss only, nothing is queued
	n   int
	c   [4]float64
	x   [4][]float64
}

// term is one sample's share of AccumGrad, given its score z = w·x.
func (q *violators) term(s dataset.Sample, z float64) float64 {
	y := signedLabel(s.Label)
	margin := y * z
	if !(margin < 1) { // not `>= 1`: a NaN margin contributes nothing
		return 0
	}
	if q.dst != nil {
		q.c[q.n], q.x[q.n] = -2*(1-margin)*y, s.X
		if q.n++; q.n == 4 {
			linalg.AXPY4(q.dst, q.c[0], q.c[1], q.c[2], q.c[3], q.x[0], q.x[1], q.x[2], q.x[3])
			q.n = 0
		}
	}
	return (1 - margin) * (1 - margin)
}

// RegGradTo implements Model: ∇(λ/2)||w||² = λw; with AccumGrad the
// gradient is λw − (2/m)Σ max(0, 1−y·w·x)·y·x.
func (m *LinearSVM) RegGradTo(dst, w linalg.Vector) {
	m.checkDim(w)
	linalg.ScaleTo(dst, m.lambda(), w)
}

// ScratchSize implements Model: the score is a single dot product, no
// scratch needed.
func (m *LinearSVM) ScratchSize() (floats, ints int) { return 0, 0 }

// PredictInto implements Model: positive margin means class 1.
func (m *LinearSVM) PredictInto(w linalg.Vector, x []float64, _ *Scratch) int {
	if linalg.Vector(x).Dot(w) > 0 {
		return 1
	}
	return 0
}

// InitParams implements Model: small random weights so that the initial
// point is generic (all-zero would sit exactly on the decision boundary).
// The 0.05 scale is roughly a tenth of the converged weight magnitude,
// which makes the paper's APE threshold rule (T₀ = 10% of the mean
// initial |parameter|) land at a meaningful value.
func (m *LinearSVM) InitParams(seed int64) linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	w := linalg.NewVector(m.Features)
	for i := range w {
		w[i] = 0.05 * rng.NormFloat64()
	}
	return w
}

func (m *LinearSVM) checkDim(w linalg.Vector) {
	if len(w) != m.Features {
		panic(fmt.Sprintf("model: svm params have %d entries, want %d", len(w), m.Features))
	}
}
