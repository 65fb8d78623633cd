package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// guard is how many sentinel lanes the checks place right past the end
// of every operand a kernel writes, to catch a store past it.
const guard = 8

// guarded returns a slice of n entries whose backing array runs on for
// guard NaN sentinels past its end, and the sentinels' check.
func guarded(n int) ([]float64, func() bool) {
	buf := make([]float64, n+guard)
	for i := n; i < len(buf); i++ {
		buf[i] = math.NaN()
	}
	intact := func() bool {
		for _, v := range buf[n:] {
			if !math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	return buf[:n:n], intact
}

// inputMajor returns the rows×cols row-major w transposed to cols rows of
// exactly rows lanes, packed back to back, with guard sentinels past the
// last row.
func inputMajor(w []float64, rows, cols int) ([]float64, func() bool) {
	wT, intact := guarded(cols * rows)
	for j := 0; j < cols; j++ {
		for h := 0; h < rows; h++ {
			wT[j*rows+h] = w[h*cols+j]
		}
	}
	return wT, intact
}

// checkInputMajorKernels pins GatherAXPY and ScatterAXPY, the dispatched
// bodies and the Go bodies alike, to the naive row-major loops on tc: the
// gather to naiveSparseDot from each row's bias, the scatter to want (w
// after naiveSparseAXPY with tc.d). The matrix has exactly tc.rows lanes
// a row and nothing between rows, so every element of every row is
// checked: a last register that reached past its lanes would show in the
// next row's first ones, or in the sentinels past the matrix and z.
func checkInputMajorKernels(tc rowCase, idx []int, val []float64, want []float64) string {
	if tc.rows == 0 {
		return "" // no lanes: no input-major matrix
	}
	bodies := []struct {
		name    string
		gather  func(z, wT []float64)
		scatter func(gT, d []float64)
	}{
		{"", func(z, wT []float64) { GatherAXPY(z, wT, idx, val) },
			func(gT, d []float64) { ScatterAXPY(gT, d, idx, val) }},
		{" (Go body)", func(z, wT []float64) { gatherAXPYGo(z, wT, idx, val) },
			func(gT, d []float64) { scatterAXPYGo(gT, d, idx, val) }},
	}
	for _, body := range bodies {
		wT, wIntact := inputMajor(tc.w, tc.rows, tc.cols)
		z, zIntact := guarded(tc.rows)
		copy(z, tc.b)
		body.gather(z, wT)
		for r := 0; r < tc.rows; r++ {
			if !sameBits(z[r], naiveSparseDot(tc.b[r], tc.w[r*tc.cols:(r+1)*tc.cols], idx, val)) {
				return "GatherAXPY" + body.name
			}
		}
		if !zIntact() || !wIntact() {
			return "GatherAXPY" + body.name + " past the end"
		}

		gT, gIntact := inputMajor(tc.w, tc.rows, tc.cols)
		d := append([]float64(nil), tc.d...)
		body.scatter(gT, d)
		for j := 0; j < tc.cols; j++ {
			for r := 0; r < tc.rows; r++ {
				if !sameBits(gT[j*tc.rows+r], want[r*tc.cols+j]) {
					return "ScatterAXPY" + body.name
				}
			}
		}
		if !gIntact() {
			return "ScatterAXPY" + body.name + " past the end"
		}
	}
	return ""
}

// TestInputMajorKernelsWidths walks the hidden widths around the AVX2
// blocks — every width of a last register in the 4-lane body (1–4) and
// the 32-lane body (29–32, the paper's 30 among them), one lane past a
// block (5, 33), a 4-lane block after a full 32-lane one (35) and a
// narrowed second 32-lane block (61, 64) — on ordinary values and on
// NaN, ±Inf, −0 and denormals, with no non-zero input, a few and all of
// them.
func TestInputMajorKernelsWidths(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this CPU: the dispatched bodies are the Go bodies")
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	rng := rand.New(rand.NewSource(11))
	for _, hidden := range []int{1, 2, 3, 4, 5, 29, 30, 31, 32, 33, 35, 61, 64} {
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
// one, panics, at every last-register width of both bodies.
func TestInputMajorKernelsRowCheck(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 4, 5, 29, 30, 31, 32, 33} {
		for _, j := range []int{3, -1} {
			z, m := make([]float64, lanes), make([]float64, 3*lanes)
			idx, val := []int{0, j}, []float64{1, 1}
			for name, f := range map[string]func(){
				"GatherAXPY":    func() { GatherAXPY(z, m, idx, val) },
				"ScatterAXPY":   func() { ScatterAXPY(m, z, idx, val) },
				"gatherAXPYGo":  func() { gatherAXPYGo(z, m, idx, val) },
				"scatterAXPYGo": func() { scatterAXPYGo(m, z, idx, val) },
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
// 784-input, 30-unit layer, rows packed 30 lanes apart, ~151 non-zero
// inputs (digit images are ~19 % ink) — through the dispatched body and
// the Go body, forward (GatherAXPY) and backward (ScatterAXPY).
func BenchmarkInputMajorKernels(b *testing.B) {
	const in, hidden = 784, 30
	rng := rand.New(rand.NewSource(12))
	wT := make([]float64, in*hidden)
	for i := range wT {
		wT[i] = rng.NormFloat64()
	}
	var idx []int
	var val []float64
	for j := 0; j < in; j++ {
		if rng.Intn(26) < 5 {
			idx, val = append(idx, j), append(val, rng.Float64())
		}
	}
	z, d := make([]float64, hidden), make([]float64, hidden)
	for h := range d {
		d[h] = rng.NormFloat64() * 1e-3
	}
	gT := make([]float64, len(wT))
	for _, bm := range []struct {
		name string
		run  func()
	}{
		{"gather/dispatch", func() { GatherAXPY(z, wT, idx, val) }},
		{"gather/go", func() { gatherAXPYGo(z, wT, idx, val) }},
		{"scatter/dispatch", func() { ScatterAXPY(gT, d, idx, val) }},
		{"scatter/go", func() { scatterAXPYGo(gT, d, idx, val) }},
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
