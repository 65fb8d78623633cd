package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// The oracles below are the per-model loops the linalg row kernels
// replaced, kept verbatim: scalar dot products, dense walks over every
// input (zeros included), one allocation per intermediate, the MLP's W1
// row-major. The shipped models must reproduce their gradient, loss and
// predictions bit for bit, up to where each parameter sits.

type oracle struct {
	loss    func(p linalg.Vector, batch []dataset.Sample) float64
	accum   func(dst, p linalg.Vector, batch []dataset.Sample)
	predict func(p linalg.Vector, x []float64) int
	// place[i] is where the oracle's parameter i sits in the model's
	// vector; nil when the layouts agree.
	place []int
}

// toOracle returns v, laid out as the model's parameters, in the
// oracle's layout.
func (o oracle) toOracle(v linalg.Vector) linalg.Vector {
	out := append(linalg.Vector(nil), v...)
	for i, at := range o.place {
		out[i] = v[at]
	}
	return out
}

// toModel is toOracle's inverse.
func (o oracle) toModel(v linalg.Vector) linalg.Vector {
	out := append(linalg.Vector(nil), v...)
	for i, at := range o.place {
		out[at] = v[i]
	}
	return out
}

func oracleDot(w linalg.Vector, x []float64) float64 {
	var s float64
	for j, xj := range x {
		s += w[j] * xj
	}
	return s
}

func oracleSoftmax(logits []float64) []float64 {
	maxZ := logits[0]
	for _, z := range logits[1:] {
		if z > maxZ {
			maxZ = z
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, z := range logits {
		e := math.Exp(z - maxZ)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func oracleArgmax(z []float64) int {
	best, bestV := 0, z[0]
	for c := 1; c < len(z); c++ {
		if z[c] > bestV {
			best, bestV = c, z[c]
		}
	}
	return best
}

func svmOracle(m *LinearSVM) oracle {
	return oracle{
		loss: func(w linalg.Vector, batch []dataset.Sample) float64 {
			loss := m.lambda() / 2 * w.Dot(w)
			if len(batch) == 0 {
				return loss
			}
			var hinge float64
			for _, s := range batch {
				margin := signedLabel(s.Label) * oracleDot(w, s.X)
				if margin < 1 {
					hinge += (1 - margin) * (1 - margin)
				}
			}
			return loss + hinge/float64(len(batch))
		},
		accum: func(dst, w linalg.Vector, batch []dataset.Sample) {
			for _, s := range batch {
				y := signedLabel(s.Label)
				if margin := y * oracleDot(w, s.X); margin < 1 {
					coeff := 2 * (1 - margin) * y
					for j, xj := range s.X {
						dst[j] -= coeff * xj
					}
				}
			}
		},
		predict: func(w linalg.Vector, x []float64) int {
			if oracleDot(w, x) > 0 {
				return 1
			}
			return 0
		},
	}
}

// mlpOracle's parameters hold W1 row-major (W1[h][j] at h·In+j); place
// maps each to the MLP's input-major j·Hidden+h.
func mlpOracle(m *MLP) oracle {
	place := make([]int, m.NumParams())
	for i := range place {
		place[i] = i
	}
	for h := 0; h < m.Hidden; h++ {
		for j := 0; j < m.In; j++ {
			place[h*m.In+j] = j*m.Hidden + h
		}
	}
	forward := func(p linalg.Vector, x []float64) (hidden, logits []float64) {
		w1o, b1o, w2o, b2o := m.offsets()
		hidden = make([]float64, m.Hidden)
		for h := 0; h < m.Hidden; h++ {
			z := p[b1o+h]
			row := p[w1o+h*m.In : w1o+(h+1)*m.In]
			for i, xi := range x {
				z += row[i] * xi
			}
			hidden[h] = sigmoid(z)
		}
		logits = make([]float64, m.Out)
		for o := 0; o < m.Out; o++ {
			z := p[b2o+o]
			for h, hv := range hidden {
				z += p[w2o+o*m.Hidden+h] * hv
			}
			logits[o] = z
		}
		return hidden, logits
	}
	return oracle{
		loss: func(p linalg.Vector, batch []dataset.Sample) float64 {
			if len(batch) == 0 {
				return 0
			}
			var ce float64
			for _, s := range batch {
				_, logits := forward(p, s.X)
				ce += -math.Log(math.Max(oracleSoftmax(logits)[s.Label], 1e-15))
			}
			return ce / float64(len(batch))
		},
		accum: func(dst, p linalg.Vector, batch []dataset.Sample) {
			w1o, b1o, w2o, b2o := m.offsets()
			for _, s := range batch {
				hidden, logits := forward(p, s.X)
				deltaOut := oracleSoftmax(logits)
				deltaOut[s.Label]--
				deltaHidden := make([]float64, m.Hidden)
				for h := 0; h < m.Hidden; h++ {
					var back float64
					for o := 0; o < m.Out; o++ {
						back += p[w2o+o*m.Hidden+h] * deltaOut[o]
					}
					deltaHidden[h] = back * hidden[h] * (1 - hidden[h])
				}
				for o := 0; o < m.Out; o++ {
					d := deltaOut[o]
					dst[b2o+o] += d
					for h, hv := range hidden {
						dst[w2o+o*m.Hidden+h] += d * hv
					}
				}
				for h := 0; h < m.Hidden; h++ {
					d := deltaHidden[h]
					dst[b1o+h] += d
					grow := dst[w1o+h*m.In : w1o+(h+1)*m.In]
					for i, xi := range s.X {
						grow[i] += d * xi
					}
				}
			}
		},
		predict: func(p linalg.Vector, x []float64) int {
			_, logits := forward(p, x)
			return oracleArgmax(logits)
		},
		place: place,
	}
}

// oracleGradient is GradientTo as it was: regularizer, fixed-width shards
// accumulated by the oracle loop, pairwise tree, one 1/m scaling.
func oracleGradient(m Model, o oracle, p linalg.Vector, batch []dataset.Sample) linalg.Vector {
	dst := linalg.NewVector(len(p))
	m.RegGradTo(dst, p)
	if len(batch) == 0 {
		return dst
	}
	var partials []linalg.Vector
	for lo := 0; lo < len(batch); lo += GradShardSize {
		buf := linalg.NewVector(len(p))
		o.accum(buf, p, batch[lo:min(lo+GradShardSize, len(batch))])
		partials = append(partials, buf)
	}
	for stride := 1; stride < len(partials); stride *= 2 {
		for i := 0; i+stride < len(partials); i += 2 * stride {
			partials[i].AddInPlace(partials[i+stride])
		}
	}
	return dst.AXPYInPlace(1/float64(len(batch)), partials[0])
}

// svmTailBatches returns, for each of 1, 2 and 3, the shortest one-shard
// batch of data whose margin violators number that many more than a
// multiple of four, so AccumGrad adds that many rows one by one after
// its last four-row flush.
func svmTailBatches(t *testing.T, m *LinearSVM, w linalg.Vector, data []dataset.Sample) []int {
	t.Helper()
	var sizes []int
	for pending := 1; pending <= 3; pending++ {
		violators := 0
		for n := 1; n <= min(GradShardSize, len(data)); n++ {
			if signedLabel(data[n-1].Label)*oracleDot(w, data[n-1].X) < 1 {
				violators++
			}
			if violators >= 4 && violators%4 == pending {
				sizes = append(sizes, n)
				break
			}
		}
		if len(sizes) != pending {
			t.Fatalf("no one-shard batch leaves %d violators pending", pending)
		}
	}
	return sizes
}

// TestModelsMatchOracles pins both models to the loops they replaced
// on the benchmark's corpora (SyntheticDigits rows are mostly zeros,
// SyntheticCredit rows are dense), the MLP at the paper's 30 hidden units
// and at widths around the kernels' register blocks: gradient, loss and
// predictions are bit-equal through the parameter layout, for batches of
// one shard and of several, at lengths that leave every tail of the
// four-wide blocking and, for the SVM, of its four-violator flush; a
// gradient accumulated into a non-zero vector is bit-equal too; the loss
// GradientLossTo returns equals Loss bitwise on one shard and to
// rounding on several.
func TestModelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	digits, _ := dataset.SyntheticDigits(dataset.DigitsConfig{Train: 601, Test: 1, Side: 28}, rng)
	credit := dataset.SyntheticCredit(dataset.CreditConfig{Samples: 601, Features: 24}, rng)
	svm := NewLinearSVM(24)
	type modelCase struct {
		name string
		m    Model
		o    oracle
		data []dataset.Sample
	}
	cases := []modelCase{{"svm", svm, svmOracle(svm), credit.Samples}}
	for _, hidden := range []int{30, 1, 3, 4, 5, 33} {
		mlp, name := NewMLP(784, hidden, 10), "mlp"
		if hidden != 30 {
			name = fmt.Sprintf("mlp-hidden%d", hidden)
		}
		cases = append(cases, modelCase{name, mlp, mlpOracle(mlp), digits.Samples})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One oracle step away from the initial point, so biases and
			// every weight are generic. p is in the oracle's layout, mp
			// the same point in the model's.
			p := tc.o.toOracle(tc.m.InitParams(3))
			p.AXPYInPlace(-0.5, oracleGradient(tc.m, tc.o, p, tc.data[:64]))
			mp := tc.o.toModel(p)
			start := linalg.NewVector(len(p))
			for i := range start {
				start[i] = rng.NormFloat64()
			}
			var sc GradScratch
			var one Scratch
			one.ensure(tc.m.ScratchSize())
			sizes := []int{0, 1, 2, 3, 5, 7, 8, 200, GradShardSize, 601}
			if m, ok := tc.m.(*LinearSVM); ok {
				sizes = append(sizes, svmTailBatches(t, m, p, tc.data)...)
			}
			for _, n := range sizes {
				batch := tc.data[:n]
				want := oracleGradient(tc.m, tc.o, p, batch)
				got := linalg.NewVector(len(p))
				fused := GradientLossTo(tc.m, got, mp, batch, &sc, 2)
				if at := bitsDiffer(want, tc.o.toOracle(got)); at != len(p) {
					t.Fatalf("n=%d: gradient differs from the oracle at %d", n, at)
				}
				acc, accWant := tc.o.toModel(start), append(linalg.Vector(nil), start...)
				tc.m.AccumGrad(acc, mp, batch, &one)
				tc.o.accum(accWant, p, batch)
				if at := bitsDiffer(accWant, tc.o.toOracle(acc)); at != len(p) {
					t.Fatalf("n=%d: AccumGrad into a non-zero vector differs from the oracle at %d", n, at)
				}
				wantLoss, loss := tc.o.loss(p, batch), tc.m.Loss(mp, batch)
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Errorf("n=%d: Loss = %v, oracle %v", n, loss, wantLoss)
				}
				if n <= GradShardSize && math.Float64bits(fused) != math.Float64bits(loss) {
					t.Errorf("n=%d: one-shard fused loss = %v, Loss = %v", n, fused, loss)
				}
				if math.Abs(fused-loss) > 1e-12*math.Abs(loss) {
					t.Errorf("n=%d: fused loss = %v, Loss = %v", n, fused, loss)
				}
			}
			xs := make([][]float64, 128)
			for i := range xs {
				xs[i] = tc.data[i].X
			}
			labels := PredictBatchInto(tc.m, make([]int, len(xs)), mp, xs, nil)
			for i, x := range xs {
				if want := tc.o.predict(p, x); labels[i] != want {
					t.Fatalf("row %d: PredictBatchInto = %d, oracle %d", i, labels[i], want)
				}
			}
		})
	}
}
