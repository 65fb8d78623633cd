package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// inputMajor returns the rows×cols row-major w transposed to cols rows of
// stride lanes, the lanes past rows set to pad.
func inputMajor(w []float64, rows, cols, stride int, pad float64) []float64 {
	wT := make([]float64, cols*stride)
	for j := 0; j < cols; j++ {
		for h := 0; h < stride; h++ {
			if h < rows {
				wT[j*stride+h] = w[h*cols+j]
			} else {
				wT[j*stride+h] = pad
			}
		}
	}
	return wT
}

// checkInputMajorKernels pins GatherAXPY and ScatterAXPY, the dispatched
// bodies and the Go bodies alike, to the naive row-major loops on tc: the
// gather to naiveSparseDot from each row's bias, the scatter to want (w
// after naiveSparseAXPY with tc.d). z and d are tried at the exact row
// count and padded to the stride; the padding lanes may hold anything.
func checkInputMajorKernels(tc rowCase, idx []int, val []float64, want []float64) string {
	stride := (tc.rows + 3) &^ 3
	if stride == 0 {
		stride = 4
	}
	wT := inputMajor(tc.w, tc.rows, tc.cols, stride, math.NaN())
	bodies := []struct {
		name    string
		gather  func(z []float64)
		scatter func(gT, d []float64)
	}{
		{"", func(z []float64) { GatherAXPY(z, wT, stride, idx, val) },
			func(gT, d []float64) { ScatterAXPY(gT, stride, d, idx, val) }},
		{" (Go body)", func(z []float64) { gatherAXPYGo(z, wT, stride, idx, val) },
			func(gT, d []float64) { scatterAXPYGo(gT, stride, d, idx, val) }},
	}
	for _, body := range bodies {
		for _, lanes := range []int{tc.rows, stride} {
			z := make([]float64, lanes)
			copy(z, tc.b)
			body.gather(z)
			for r := 0; r < tc.rows; r++ {
				if !sameBits(z[r], naiveSparseDot(tc.b[r], tc.w[r*tc.cols:(r+1)*tc.cols], idx, val)) {
					return "GatherAXPY" + body.name
				}
			}

			d := make([]float64, lanes)
			copy(d, tc.d)
			gT := inputMajor(tc.w, tc.rows, tc.cols, stride, math.NaN())
			body.scatter(gT, d)
			for r := 0; r < tc.rows; r++ {
				for j := 0; j < tc.cols; j++ {
					if !sameBits(gT[j*stride+r], want[r*tc.cols+j]) {
						return "ScatterAXPY" + body.name
					}
				}
			}
		}
	}
	return ""
}

// TestInputMajorKernelsWidths walks the hidden widths around the AVX2
// blocks — one lane, a partial register, one register, one over, the
// paper's 30 and one past the eight-register block — on ordinary values
// and on NaN, ±Inf, −0 and denormals, with no non-zero input, a few and
// all of them.
func TestInputMajorKernelsWidths(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the dispatched bodies are the Go bodies")
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	rng := rand.New(rand.NewSource(11))
	for _, hidden := range []int{1, 3, 4, 5, 30, 33} {
		for _, cols := range []int{0, 1, 7, 40} {
			for _, density := range []float64{0, 0.3, 1} {
				for _, special := range []float64{0, 0.3} {
					tc := randomRowCase(rng, hidden, cols, density, special)
					if special > 0 {
						for i := range tc.w {
							if rng.Intn(8) == 0 {
								tc.w[i] = nonFinite[rng.Intn(len(nonFinite))]
							}
						}
						for i := range tc.x {
							if rng.Intn(8) == 0 {
								tc.x[i] = nonFinite[rng.Intn(len(nonFinite))]
							}
						}
						tc.d[rng.Intn(hidden)] = nonFinite[rng.Intn(len(nonFinite))]
					}
					if bad := checkRowKernels(tc); bad != "" {
						t.Fatalf("hidden %d, %d inputs, density %v: %s differs from the naive loop", hidden, cols, density, bad)
					}
				}
			}
		}
	}
}

// TestInputMajorKernelsRowCheck pins the index check of the assembly
// bodies and of the Go body: an index past the last row, or a negative
// one, panics.
func TestInputMajorKernelsRowCheck(t *testing.T) {
	for _, lanes := range []int{2, 4, 32} {
		for _, j := range []int{3, -1} {
			z, m := make([]float64, lanes), make([]float64, 3*lanes)
			idx, val := []int{0, j}, []float64{1, 1}
			for name, f := range map[string]func(){
				"GatherAXPY":  func() { GatherAXPY(z, m, lanes, idx, val) },
				"ScatterAXPY": func() { ScatterAXPY(m, lanes, z, idx, val) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %d lanes, index %d of 3 rows accepted", name, lanes, j)
						}
					}()
					f()
				}()
			}
		}
	}
}

// BenchmarkInputMajorKernels runs the MLP's first layer at its shape — a
// 784-input, 30-unit layer on a 32-lane stride, ~151 non-zero inputs
// (digit images are ~19 % ink) — through the dispatched body and the Go
// body, forward (GatherAXPY) and backward (ScatterAXPY).
func BenchmarkInputMajorKernels(b *testing.B) {
	const in, hidden, stride = 784, 30, 32
	rng := rand.New(rand.NewSource(12))
	wT := make([]float64, in*stride)
	for j := 0; j < in; j++ {
		for h := 0; h < hidden; h++ {
			wT[j*stride+h] = rng.NormFloat64()
		}
	}
	var idx []int
	var val []float64
	for j := 0; j < in; j++ {
		if rng.Intn(26) < 5 {
			idx, val = append(idx, j), append(val, rng.Float64())
		}
	}
	z, d := make([]float64, stride), make([]float64, stride)
	for h := 0; h < hidden; h++ {
		d[h] = rng.NormFloat64() * 1e-3
	}
	gT := make([]float64, len(wT))
	for _, bm := range []struct {
		name string
		run  func()
	}{
		{"gather/dispatch", func() { GatherAXPY(z, wT, stride, idx, val) }},
		{"gather/go", func() { gatherAXPYGo(z, wT, stride, idx, val) }},
		{"scatter/dispatch", func() { ScatterAXPY(gT, stride, d, idx, val) }},
		{"scatter/go", func() { scatterAXPYGo(gT, stride, d, idx, val) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/nonzero")
		})
	}
	benchGather = z[0] + gT[0]
}

// benchGather keeps the compiler from discarding a benchmarked result.
var benchGather float64
