package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// LogisticRegression is a binary L2-regularized logistic classifier with a
// bias term (parameters: d weights followed by 1 bias). Its loss is smooth
// and, with Lambda > 0, strongly convex — the setting in which the paper's
// linear-rate bound (eq. 17) applies — which makes it the reference model
// for convergence tests.
type LogisticRegression struct {
	Features int
	Lambda   float64 // L2 strength on the weights (not the bias); default 1e-3
}

var (
	_ Model            = (*LogisticRegression)(nil)
	_ BatchAccumulator = (*LogisticRegression)(nil)
	_ BatchPredictor   = (*LogisticRegression)(nil)
)

// NewLogisticRegression returns a model for d features with default
// regularization.
func NewLogisticRegression(d int) *LogisticRegression {
	return &LogisticRegression{Features: d, Lambda: 1e-3}
}

// Name implements Model.
func (m *LogisticRegression) Name() string { return "logistic-regression" }

// NumParams implements Model.
func (m *LogisticRegression) NumParams() int { return m.Features + 1 }

func (m *LogisticRegression) lambda() float64 {
	if m.Lambda <= 0 {
		return 1e-3
	}
	return m.Lambda
}

// Loss implements Model: mean cross-entropy + (λ/2)||w||².
func (m *LogisticRegression) Loss(p linalg.Vector, batch []dataset.Sample) float64 {
	m.checkDim(p)
	w := p[:m.Features]
	loss := 0.0
	for j := 0; j < m.Features; j++ {
		loss += m.lambda() / 2 * w[j] * w[j]
	}
	if len(batch) == 0 {
		return loss
	}
	return loss + m.AccumGrad(nil, p, batch, nil)/float64(len(batch))
}

// AccumGrad implements BatchAccumulator and is the model's one pass over
// a batch: it returns the unscaled cross-entropy sum Σ log(1+exp(−y·z))
// and, unless dst is nil (Loss), adds every sample's gradient term to
// dst (GradientLossTo applies the 1/m). The scores of four samples are
// computed side by side; the sums run in batch order.
func (m *LogisticRegression) AccumGrad(dst, p linalg.Vector, batch []dataset.Sample, _ *Scratch) float64 {
	w, b := p[:m.Features], p[m.Features]
	var ce float64
	for ; len(batch) >= 4; batch = batch[4:] {
		z0, z1, z2, z3 := linalg.Dots4From(0, 0, 0, 0, batch[0].X, batch[1].X, batch[2].X, batch[3].X, w)
		ce += m.term(dst, batch[0], z0+b)
		ce += m.term(dst, batch[1], z1+b)
		ce += m.term(dst, batch[2], z2+b)
		ce += m.term(dst, batch[3], z3+b)
	}
	for _, s := range batch {
		ce += m.term(dst, s, linalg.Vector(s.X).Dot(w)+b)
	}
	return ce
}

// term is one sample's share of AccumGrad, given its logit z = w·x + b.
func (m *LogisticRegression) term(dst linalg.Vector, s dataset.Sample, z float64) float64 {
	y := signedLabel(s.Label)
	if dst != nil {
		// d/dz log(1+exp(-yz)) = -y·σ(-yz)
		coeff := -y * sigmoid(-y*z)
		dst[:m.Features].AXPYInPlace(coeff, s.X)
		dst[m.Features] += coeff
	}
	// Stable log(1+exp(-yz)) via softplus.
	return softplus(-y * z)
}

// Gradient implements Model.
func (m *LogisticRegression) Gradient(p linalg.Vector, batch []dataset.Sample) linalg.Vector {
	return GradientTo(m, linalg.NewVector(m.NumParams()), p, batch, nil, 1)
}

// RegGradTo implements BatchAccumulator: λw on the weights, 0 on the
// bias.
func (m *LogisticRegression) RegGradTo(dst, p linalg.Vector) {
	m.checkDim(p)
	for j := 0; j < m.Features; j++ {
		dst[j] = m.lambda() * p[j]
	}
	dst[m.Features] = 0
}

// ScratchSize implements BatchAccumulator and BatchPredictor: the logit
// is a single dot product plus the bias, no scratch needed.
func (m *LogisticRegression) ScratchSize() (floats, ints int) { return 0, 0 }

// Predict implements Model.
func (m *LogisticRegression) Predict(p linalg.Vector, x []float64) int {
	w, b := p[:m.Features], p[m.Features]
	if linalg.Vector(x).Dot(w)+b > 0 {
		return 1
	}
	return 0
}

// PredictInto implements BatchPredictor.
func (m *LogisticRegression) PredictInto(p linalg.Vector, x []float64, _ *Scratch) int {
	return m.Predict(p, x)
}

// InitParams implements Model.
func (m *LogisticRegression) InitParams(seed int64) linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	p := linalg.NewVector(m.NumParams())
	for i := 0; i < m.Features; i++ {
		p[i] = 0.01 * rng.NormFloat64()
	}
	return p
}

func (m *LogisticRegression) checkDim(p linalg.Vector) {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("model: logreg params have %d entries, want %d", len(p), m.NumParams()))
	}
}

// softplus computes log(1+exp(z)) without overflow.
func softplus(z float64) float64 {
	if z > 30 {
		return z
	}
	if z < -30 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
