package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// SoftmaxRegression is a multiclass linear classifier with cross-entropy
// loss and L2 regularization — a convex multiclass model that sits between
// the binary SVM and the MLP: it handles the 10-class digit task while
// keeping the convexity the paper's Theorem 1 assumes. Parameters are
// packed as [W (Classes×Features row-major) | b (Classes)].
type SoftmaxRegression struct {
	Features int
	Classes  int
	Lambda   float64 // L2 strength on weights; default 1e-4
}

var (
	_ Model            = (*SoftmaxRegression)(nil)
	_ BatchAccumulator = (*SoftmaxRegression)(nil)
	_ BatchPredictor   = (*SoftmaxRegression)(nil)
)

// NewSoftmaxRegression returns a model for the given shape with default
// regularization.
func NewSoftmaxRegression(features, classes int) *SoftmaxRegression {
	if features <= 0 || classes < 2 {
		panic(fmt.Sprintf("model: invalid softmax shape %d features, %d classes", features, classes))
	}
	return &SoftmaxRegression{Features: features, Classes: classes, Lambda: 1e-4}
}

// Name implements Model.
func (m *SoftmaxRegression) Name() string {
	return fmt.Sprintf("softmax-%dx%d", m.Features, m.Classes)
}

// NumParams implements Model.
func (m *SoftmaxRegression) NumParams() int { return m.Classes*m.Features + m.Classes }

func (m *SoftmaxRegression) lambda() float64 {
	if m.Lambda <= 0 {
		return 1e-4
	}
	return m.Lambda
}

// ScratchSize implements BatchAccumulator and BatchPredictor: the class
// scores plus the compacted input (values in F, positions in I).
func (m *SoftmaxRegression) ScratchSize() (floats, ints int) {
	return m.Classes + m.Features, m.Features
}

// logits is the model's one forward pass: it compacts x's non-zeros into
// sc and computes the per-class scores from them, returning the scores
// and the compacted input (all backed by sc).
func (m *SoftmaxRegression) logits(p linalg.Vector, x []float64, sc *Scratch) (logits, val []float64, idx []int) {
	biasOff := m.Classes * m.Features
	logits = sc.F[:m.Classes]
	val = sc.F[m.Classes : m.Classes+m.Features]
	n := linalg.Compact(sc.I, val, x)
	idx, val = sc.I[:n], val[:n]
	linalg.SparseAffineTo(logits, p[:biasOff], p[biasOff:], m.Features, idx, val)
	return logits, val, idx
}

// Loss implements Model: mean cross-entropy + (λ/2)||W||².
func (m *SoftmaxRegression) Loss(p linalg.Vector, batch []dataset.Sample) float64 {
	m.checkDim(p)
	var reg float64
	for i := 0; i < m.Classes*m.Features; i++ {
		reg += p[i] * p[i]
	}
	loss := m.lambda() / 2 * reg
	if len(batch) == 0 {
		return loss
	}
	sc := borrowScratch(m.ScratchSize())
	ce := m.AccumGrad(nil, p, batch, sc)
	returnScratch(sc)
	return loss + ce/float64(len(batch))
}

// Gradient implements Model.
func (m *SoftmaxRegression) Gradient(p linalg.Vector, batch []dataset.Sample) linalg.Vector {
	return GradientTo(m, linalg.NewVector(m.NumParams()), p, batch, nil, 1)
}

// RegGradTo implements BatchAccumulator: λW on the weights, 0 on the
// biases.
func (m *SoftmaxRegression) RegGradTo(dst, p linalg.Vector) {
	m.checkDim(p)
	l := m.lambda()
	biasOff := m.Classes * m.Features
	for i := 0; i < biasOff; i++ {
		dst[i] = l * p[i]
	}
	for i := biasOff; i < len(dst); i++ {
		dst[i] = 0
	}
}

// AccumGrad implements BatchAccumulator (unscaled per-sample terms),
// returning the cross-entropy sum. A nil dst skips the gradient and
// leaves only the loss pass.
func (m *SoftmaxRegression) AccumGrad(dst, p linalg.Vector, batch []dataset.Sample, sc *Scratch) float64 {
	biasOff := m.Classes * m.Features
	var ce float64
	for _, s := range batch {
		probs, val, idx := m.logits(p, s.X, sc)
		softmaxInPlace(probs)
		ce += -math.Log(math.Max(probs[s.Label], 1e-15))
		if dst == nil {
			continue
		}
		probs[s.Label]-- // now the output delta p_c − 1{c=label}
		dst[biasOff:].AddInPlace(probs)
		linalg.SparseOuterAdd(dst[:biasOff], m.Features, probs, idx, val)
	}
	return ce
}

// Predict implements Model: argmax class score.
func (m *SoftmaxRegression) Predict(p linalg.Vector, x []float64) int {
	sc := borrowScratch(m.ScratchSize())
	label := m.PredictInto(p, x, sc)
	returnScratch(sc)
	return label
}

// PredictInto implements BatchPredictor. Softmax is monotone, so the
// argmax over raw logits is the most probable class without ever
// exponentiating.
func (m *SoftmaxRegression) PredictInto(p linalg.Vector, x []float64, sc *Scratch) int {
	logits, _, _ := m.logits(p, x, sc)
	return argmax(logits)
}

// InitParams implements Model: small random weights, zero biases.
func (m *SoftmaxRegression) InitParams(seed int64) linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	p := linalg.NewVector(m.NumParams())
	for i := 0; i < m.Classes*m.Features; i++ {
		p[i] = 0.01 * rng.NormFloat64()
	}
	return p
}

func (m *SoftmaxRegression) checkDim(p linalg.Vector) {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("model: softmax params have %d entries, want %d", len(p), m.NumParams()))
	}
}

// softmaxInPlace overwrites logits with their stable softmax.
func softmaxInPlace(z []float64) {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxZ)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
}

// argmax returns the position of the first largest entry of z.
func argmax(z []float64) int {
	best, bestV := 0, z[0]
	for i, v := range z[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}
