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
// as [W1 (In×Hidden input-major: row j holds the Hidden weights fanning
// out of input j, so W1[h][j] sits at j·Hidden+h) | b1 (Hidden) | W2
// (Out×Hidden row-major) | b2 (Out)]. The first layer runs on the
// input-major kernels (linalg.GatherAXPY forward, linalg.ScatterAXPY
// backward), which touch only the rows of the inputs that are non-zero.
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

// scratch splits sc.F into the hidden activations, the output scores, the
// hidden deltas and the compacted input values.
func (m *MLP) scratch(sc *Scratch) (hidden, logits, delta, val []float64) {
	f := sc.F
	return f[:m.Hidden], f[m.Hidden : m.Hidden+m.Out], f[m.Hidden+m.Out : 2*m.Hidden+m.Out], f[2*m.Hidden+m.Out : 2*m.Hidden+m.Out+m.In]
}

// head is everything after the first layer, shared by the batch and the
// single-row passes: it turns the pre-activations in hidden into sigmoid
// activations in place and writes the raw output scores to logits.
func (m *MLP) head(p linalg.Vector, hidden, logits []float64) {
	_, _, w2o, b2o := m.offsets()
	for h, z := range hidden {
		hidden[h] = sigmoid(z)
	}
	linalg.AffineTo(logits, p[w2o:b2o], p[b2o:], hidden)
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
	hidden, probs, delta, xval := m.scratch(sc)
	deltaHidden := linalg.Vector(delta)
	var ce float64
	for _, s := range batch {
		n := linalg.Compact(sc.I, xval, s.X)
		idx, val := sc.I[:n], xval[:n]
		copy(hidden, p[b1o:w2o])
		linalg.GatherAXPY(hidden, p[w1o:b1o], idx, val)
		m.head(p, hidden, probs)
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
		for o, dv := range probs {
			row := w2o + o*m.Hidden
			deltaHidden.AXPYInPlace(dv, p[row:row+m.Hidden])
			dst[b2o+o] += dv
			dst[row:row+m.Hidden].AXPYInPlace(dv, hidden)
		}
		for h, back := range deltaHidden {
			deltaHidden[h] = back * hidden[h] * (1 - hidden[h])
		}
		dst[b1o:w2o].AddInPlace(deltaHidden)
		linalg.ScatterAXPY(dst[w1o:b1o], deltaHidden, idx, val)
	}
	return ce
}

// PredictInto implements Model: the most probable class. Softmax is
// monotone, so the argmax over the output scores is that class without
// the exp/normalize pass.
func (m *MLP) PredictInto(p linalg.Vector, x []float64, sc *Scratch) int {
	w1o, b1o, w2o, _ := m.offsets()
	hidden, logits, _, val := m.scratch(sc)
	n := linalg.Compact(sc.I, val, x)
	copy(hidden, p[b1o:w2o])
	linalg.GatherAXPY(hidden, p[w1o:b1o], sc.I[:n], val[:n])
	m.head(p, hidden, logits)
	return argmax(logits)
}

// InitParams implements Model: Xavier/Glorot uniform initialization.
// W1 is drawn hidden unit by hidden unit: W1[h][j], stored at
// j·Hidden+h, is draw h·In+j.
func (m *MLP) InitParams(seed int64) linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	p := linalg.NewVector(m.NumParams())
	w1o, _, w2o, b2o := m.offsets()
	lim1 := math.Sqrt(6 / float64(m.In+m.Hidden))
	for h := 0; h < m.Hidden; h++ {
		for j := 0; j < m.In; j++ {
			p[w1o+j*m.Hidden+h] = lim1 * (2*rng.Float64() - 1)
		}
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
