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
// as [W1 (Hidden×In row-major: row h holds the In weights into hidden
// unit h) | b1 (Hidden) | W2 (Out×Hidden row-major) | b2 (Out)].
//
// A long batch pass (AccumGrad) on a CPU with SIMD input-major kernels
// works on an input-major copy of W1 instead: In rows of Hidden weights
// (the weights fanning out of one input), padded to a stride of Hidden
// rounded up to four lanes, built in the caller's Scratch at the start
// of the call, with the W1 block of the gradient handled the same way.
// Short batches, CPUs without those kernels and a single row
// (PredictInto) walk W1 in place.
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
// deltas and the compacted input (values in F, positions in I). The
// input-major copies of a batch pass are not counted: AccumGrad sizes
// Scratch.T itself when it makes them.
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

// Break-even batch lengths of the input-major walk, measured at
// 784-30-10 on digit rows (about one input in five non-zero) on a 2-vCPU
// AVX2 Xeon: on shorter batches the copies cost more than the kernels
// save. A gradient pass makes three W1-sized copies (W1 in, its gradient
// block in and out) and saves on the forward and the backward kernel; a
// loss pass makes one copy and saves on the forward kernel only.
const (
	inputMajorGradRows = 16
	inputMajorLossRows = 12
)

// inputMajor reports whether a pass over rows samples walks W1
// input-major: only with SIMD kernels, and only on a batch long enough
// to repay the copies.
func (m *MLP) inputMajor(rows int, grad bool) bool {
	if grad {
		return linalg.InputMajorSIMD() && rows >= inputMajorGradRows
	}
	return linalg.InputMajorSIMD() && rows >= inputMajorLossRows
}

// AccumGrad implements Model via backpropagation (unscaled per-sample
// terms; GradientLossTo applies the 1/m), returning the cross-entropy
// sum. A nil dst skips the backward pass and leaves only the loss.
//
// A long enough batch on a SIMD CPU runs the first layer on input-major
// copies in sc.T (see MLP): W1 is transposed in, the gradient's W1 block
// is transposed in, accumulated sample by sample and transposed back
// out. Otherwise W1 and its gradient are walked in place. Every element
// receives the same products in the same order on either walk, so the
// result is bitwise the same.
func (m *MLP) AccumGrad(dst, p linalg.Vector, batch []dataset.Sample, sc *Scratch) float64 {
	return m.accumGrad(dst, p, batch, sc, m.inputMajor(len(batch), dst != nil))
}

// accumGrad is AccumGrad with the first-layer walk given: input-major
// copies when inputMajor holds, W1 in place otherwise.
func (m *MLP) accumGrad(dst, p linalg.Vector, batch []dataset.Sample, sc *Scratch, inputMajor bool) float64 {
	w1o, b1o, w2o, b2o := m.offsets()
	hidden, probs, delta, xval := m.scratch(sc)
	var wT, gT, z, d []float64
	stride := (m.Hidden + 3) &^ 3
	if inputMajor {
		size := m.In * stride
		need := size + 2*stride
		if dst != nil {
			need += size
		}
		t := sc.sizeT(need)
		wT, z, d = t[:size], t[size:size+stride], t[size+stride:size+2*stride]
		transposeIn(wT, p[w1o:b1o], m.In, stride)
		if dst != nil {
			gT = t[size+2*stride:]
			transposeIn(gT, dst[w1o:b1o], m.In, stride)
		}
		// The kernels compute in the padding lanes of z and d like in
		// any other lane; they start at zero and nothing reads them.
		clear(z)
		clear(d)
		hidden, delta = z[:m.Hidden], d[:m.Hidden]
	}
	deltaHidden := linalg.Vector(delta)
	var ce float64
	for _, s := range batch {
		n := linalg.Compact(sc.I, xval, s.X)
		idx, val := sc.I[:n], xval[:n]
		if inputMajor {
			copy(hidden, p[b1o:w2o])
			linalg.GatherAXPY(z, wT, stride, idx, val)
		} else {
			linalg.SparseAffineTo(hidden, p[w1o:b1o], p[b1o:w2o], m.In, idx, val)
		}
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
		if inputMajor {
			linalg.ScatterAXPY(gT, stride, d, idx, val)
		} else {
			linalg.SparseOuterAdd(dst[w1o:b1o], m.In, deltaHidden, idx, val)
		}
	}
	if gT != nil {
		transposeOut(dst[w1o:b1o], gT, m.In, stride)
	}
	return ce
}

// PredictInto implements Model: the most probable class. Softmax is
// monotone, so the argmax over the output scores is that class without
// the exp/normalize pass. One row walks W1 row-major: transposing it
// would cost several predictions' worth of copying.
func (m *MLP) PredictInto(p linalg.Vector, x []float64, sc *Scratch) int {
	w1o, b1o, w2o, _ := m.offsets()
	hidden, logits, _, val := m.scratch(sc)
	n := linalg.Compact(sc.I, val, x)
	linalg.SparseAffineTo(hidden, p[w1o:b1o], p[b1o:w2o], m.In, sc.I[:n], val[:n])
	m.head(p, hidden, logits)
	return argmax(logits)
}

// transposeIn copies the row-major rows×in matrix w (rows = len(w)/in)
// into wT input-major: row j of wT, stride lanes long, holds column j of
// w followed by zeros. Four inputs go at a time, so each line of w read
// serves four rows of wT.
func transposeIn(wT, w []float64, in, stride int) {
	rows := len(w) / in
	j := 0
	for ; j+4 <= in; j += 4 {
		r0, r1, r2, r3 := wT[j*stride:(j+1)*stride], wT[(j+1)*stride:(j+2)*stride], wT[(j+2)*stride:(j+3)*stride], wT[(j+3)*stride:(j+4)*stride]
		for h := 0; h < rows; h++ {
			src := w[h*in+j : h*in+j+4]
			r0[h], r1[h], r2[h], r3[h] = src[0], src[1], src[2], src[3]
		}
		clear(r0[rows:])
		clear(r1[rows:])
		clear(r2[rows:])
		clear(r3[rows:])
	}
	for ; j < in; j++ {
		row := wT[j*stride : (j+1)*stride]
		for h := 0; h < rows; h++ {
			row[h] = w[h*in+j]
		}
		clear(row[rows:])
	}
}

// transposeOut is transposeIn's inverse: it copies the first
// len(w)/in lanes of every row of wT back into the row-major w.
func transposeOut(w, wT []float64, in, stride int) {
	rows := len(w) / in
	j := 0
	for ; j+4 <= in; j += 4 {
		r0, r1, r2, r3 := wT[j*stride:(j+1)*stride], wT[(j+1)*stride:(j+2)*stride], wT[(j+2)*stride:(j+3)*stride], wT[(j+3)*stride:(j+4)*stride]
		for h := 0; h < rows; h++ {
			dst := w[h*in+j : h*in+j+4]
			dst[0], dst[1], dst[2], dst[3] = r0[h], r1[h], r2[h], r3[h]
		}
	}
	for ; j < in; j++ {
		row := wT[j*stride : (j+1)*stride]
		for h := 0; h < rows; h++ {
			w[h*in+j] = row[h]
		}
	}
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
