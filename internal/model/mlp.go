package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// MLP is a fully connected 3-layer neural network — the paper's testbed
// model: In inputs, Hidden sigmoid perceptrons, Out softmax outputs trained
// with cross-entropy (784-30-10 for the digit task). Parameters are packed
// as [W1 (In×Hidden row-major) | b1 (Hidden) | W2 (Hidden×Out) | b2 (Out)].
type MLP struct {
	In, Hidden, Out int
}

var _ Model = (*MLP)(nil)

// NewMLP returns the paper's 784-30-10 network when called as
// NewMLP(784, 30, 10).
func NewMLP(in, hidden, out int) *MLP {
	if in <= 0 || hidden <= 0 || out <= 0 {
		panic(fmt.Sprintf("model: invalid MLP shape %d-%d-%d", in, hidden, out))
	}
	return &MLP{In: in, Hidden: hidden, Out: out}
}

// Name implements Model.
func (m *MLP) Name() string { return fmt.Sprintf("mlp-%d-%d-%d", m.In, m.Hidden, m.Out) }

// NumParams implements Model.
func (m *MLP) NumParams() int {
	return m.In*m.Hidden + m.Hidden + m.Hidden*m.Out + m.Out
}

// Parameter block offsets within the flat vector.
func (m *MLP) offsets() (w1, b1, w2, b2 int) {
	w1 = 0
	b1 = m.In * m.Hidden
	w2 = b1 + m.Hidden
	b2 = w2 + m.Hidden*m.Out
	return
}

// ScratchSize implements Model: hidden activations, output scores, hidden
// deltas and the compacted input (values in F, positions in I).
func (m *MLP) ScratchSize() (floats, ints int) {
	return 2*m.Hidden + m.Out + m.In, m.In
}

// forward is the model's one forward pass: it compacts x's non-zeros into
// sc, then computes the hidden activations and the raw output scores,
// returning both and the compacted input (all backed by sc).
func (m *MLP) forward(p linalg.Vector, x []float64, sc *Scratch) (hidden, logits, val []float64, idx []int) {
	w1o, b1o, w2o, b2o := m.offsets()
	hidden = sc.F[:m.Hidden]
	logits = sc.F[m.Hidden : m.Hidden+m.Out]
	val = sc.F[2*m.Hidden+m.Out : 2*m.Hidden+m.Out+m.In]
	n := linalg.Compact(sc.I, val, x)
	idx, val = sc.I[:n], val[:n]
	linalg.SparseAffineTo(hidden, p[w1o:b1o], p[b1o:w2o], m.In, idx, val)
	for h, z := range hidden {
		hidden[h] = sigmoid(z)
	}
	linalg.AffineTo(logits, p[w2o:b2o], p[b2o:], hidden)
	return hidden, logits, val, idx
}

// Loss implements Model: mean cross-entropy over the batch.
func (m *MLP) Loss(p linalg.Vector, batch []dataset.Sample) float64 {
	m.checkDim(p)
	if len(batch) == 0 {
		return 0
	}
	sc := borrowScratch(m.ScratchSize())
	ce := m.AccumGrad(nil, p, batch, sc)
	returnScratch(sc)
	return ce / float64(len(batch))
}

// RegGradTo implements Model: the MLP is unregularized.
func (m *MLP) RegGradTo(dst, p linalg.Vector) {
	m.checkDim(p)
	dst.Fill(0)
}

// AccumGrad implements Model via backpropagation (unscaled per-sample
// terms; GradientLossTo applies the 1/m), returning the cross-entropy
// sum. A nil dst skips the backward pass and leaves only the loss.
func (m *MLP) AccumGrad(dst, p linalg.Vector, batch []dataset.Sample, sc *Scratch) float64 {
	w1o, b1o, w2o, b2o := m.offsets()
	deltaHidden := linalg.Vector(sc.F[m.Hidden+m.Out : 2*m.Hidden+m.Out])
	var ce float64
	for _, s := range batch {
		hidden, probs, val, idx := m.forward(p, s.X, sc)
		softmaxInPlace(probs)
		ce += -math.Log(math.Max(probs[s.Label], 1e-15))
		if dst == nil {
			continue
		}
		// Output delta: softmax+CE gives δ_o = p_o − 1{o=label}.
		probs[s.Label]--
		// Hidden delta: δ_h = σ'(z_h)·Σ_o w2[o][h]·δ_o, the sum over o
		// accumulated row by row.
		deltaHidden.Fill(0)
		for o, d := range probs {
			row := w2o + o*m.Hidden
			deltaHidden.AXPYInPlace(d, p[row:row+m.Hidden])
			dst[b2o+o] += d
			dst[row:row+m.Hidden].AXPYInPlace(d, hidden)
		}
		for h, back := range deltaHidden {
			deltaHidden[h] = back * hidden[h] * (1 - hidden[h])
		}
		dst[b1o:w2o].AddInPlace(deltaHidden)
		linalg.SparseOuterAdd(dst[w1o:b1o], m.In, deltaHidden, idx, val)
	}
	return ce
}

// PredictInto implements Model: the most probable class. Softmax is
// monotone, so the argmax over the output scores is that class without
// the exp/normalize pass.
func (m *MLP) PredictInto(p linalg.Vector, x []float64, sc *Scratch) int {
	_, logits, _, _ := m.forward(p, x, sc)
	return argmax(logits)
}

// InitParams implements Model: Xavier/Glorot uniform initialization.
func (m *MLP) InitParams(seed int64) linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	p := linalg.NewVector(m.NumParams())
	w1o, _, w2o, b2o := m.offsets()
	lim1 := math.Sqrt(6 / float64(m.In+m.Hidden))
	for i := w1o; i < w1o+m.In*m.Hidden; i++ {
		p[i] = lim1 * (2*rng.Float64() - 1)
	}
	lim2 := math.Sqrt(6 / float64(m.Hidden+m.Out))
	for i := w2o; i < b2o; i++ {
		p[i] = lim2 * (2*rng.Float64() - 1)
	}
	// Biases start at zero.
	return p
}

func (m *MLP) checkDim(p linalg.Vector) {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("model: mlp params have %d entries, want %d", len(p), m.NumParams()))
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
