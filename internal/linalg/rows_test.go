package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The naive loops below are the contract: every row kernel must return
// exactly what they return, bit for bit.

func naiveDot(z float64, a, x []float64) float64 {
	for i := range x {
		z += a[i] * x[i]
	}
	return z
}

func naiveSparseDot(z float64, a []float64, idx []int, val []float64) float64 {
	for k := range idx {
		z += a[idx[k]] * val[k]
	}
	return z
}

func naiveSparseAXPY(dst []float64, c float64, idx []int, val []float64) {
	for k := range idx {
		dst[idx[k]] += c * val[k]
	}
}

func naiveCompact(x []float64) (idx []int, val []float64) {
	for i, xi := range x {
		if xi != 0 {
			idx, val = append(idx, i), append(val, xi)
		}
	}
	return idx, val
}

// sameBits is bitwise equality, except that any NaN matches any NaN: which
// operand's payload a NaN product inherits is the compiler's choice of
// instruction operand order, not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// rowCase is one input of the kernel checks: rows×cols parameters w, a
// bias per row, an input x of cols entries and one coefficient per row.
type rowCase struct {
	rows, cols int
	w, b, x, d []float64
}

// checkRowKernels runs every row kernel on tc against the naive loops and
// returns the name of the first one that disagrees ("" when all agree).
func checkRowKernels(tc rowCase) string {
	row := func(m []float64, r int) []float64 { return m[r*tc.cols : (r+1)*tc.cols] }
	idx, val := make([]int, tc.cols), make([]float64, tc.cols)
	n := Compact(idx, val, tc.x)
	idx, val = idx[:n], val[:n]
	wantIdx, wantVal := naiveCompact(tc.x)
	if len(wantIdx) != n || !sameVec(val, wantVal) {
		return "Compact"
	}
	for k := range idx {
		if idx[k] != wantIdx[k] {
			return "Compact"
		}
	}

	for r := 0; r+4 <= tc.rows; r++ {
		var got, want [4]float64
		got[0], got[1], got[2], got[3] = Dots4From(tc.b[r], tc.b[r+1], tc.b[r+2], tc.b[r+3],
			row(tc.w, r), row(tc.w, r+1), row(tc.w, r+2), row(tc.w, r+3), tc.x)
		for q := 0; q < 4; q++ {
			want[q] = naiveDot(tc.b[r+q], row(tc.w, r+q), tc.x)
		}
		if !sameVec(got[:], want[:]) {
			return "Dots4From"
		}

		// Four rows added to x in order: AXPY4 against AXPYInPlace.
		dst, seq := append([]float64(nil), tc.x...), Vector(append([]float64(nil), tc.x...))
		AXPY4(dst, tc.d[r], tc.d[r+1], tc.d[r+2], tc.d[r+3], row(tc.w, r), row(tc.w, r+1), row(tc.w, r+2), row(tc.w, r+3))
		for q := 0; q < 4; q++ {
			seq.AXPYInPlace(tc.d[r+q], row(tc.w, r+q))
		}
		if !sameVec(dst, seq) {
			return "AXPY4"
		}
	}

	out := make([]float64, tc.rows)
	AffineTo(out, tc.w, tc.b, tc.x)
	for r := 0; r < tc.rows; r++ {
		if !sameBits(out[r], naiveDot(tc.b[r], row(tc.w, r), tc.x)) {
			return "AffineTo"
		}
	}

	// The input-major kernels run on transposed copies of w, once on the
	// dispatched body (AVX2 where the CPU has it) and once on the Go body;
	// the scatter accumulates into its copy.
	want := append([]float64(nil), tc.w...)
	for r := 0; r < tc.rows; r++ {
		naiveSparseAXPY(row(want, r), tc.d[r], idx, val)
	}
	if bad := checkInputMajorKernels(tc, idx, val, want); bad != "" {
		return bad
	}

	// Dropping the zeros is itself exact: with finite parameters and a
	// seed other than −0 the gathered sums equal the dense ones, and the
	// gathered update equals the dense one wherever dst is not −0.
	finite := true
	for _, v := range append(append([]float64(nil), tc.w...), tc.d...) {
		finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if !finite {
		return ""
	}
	negZero := func(v float64) bool { return math.Float64bits(v) == 1<<63 }
	for r := 0; r < tc.rows; r++ {
		if !negZero(tc.b[r]) && !sameBits(naiveSparseDot(tc.b[r], row(tc.w, r), idx, val), out[r]) {
			return "sparse vs dense dot"
		}
		dense := append([]float64(nil), row(tc.w, r)...)
		Vector(dense).AXPYInPlace(tc.d[r], tc.x)
		for i, v := range row(want, r) {
			if !negZero(tc.w[r*tc.cols+i]) && !sameBits(v, dense[i]) {
				return "sparse vs dense AXPY"
			}
		}
	}
	return ""
}

// specials are the values a sum's bits are most sensitive to.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030, // denormals
	0x1p-1022, 1e-300, 1e300, math.MaxFloat64 / 4,
}

// randomRowCase draws a case whose x has the given fraction of non-zeros
// and whose entries are special values with probability special.
func randomRowCase(rng *rand.Rand, rows, cols int, density, special float64) rowCase {
	draw := func() float64 {
		if rng.Float64() < special {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	tc := rowCase{rows: rows, cols: cols,
		w: make([]float64, rows*cols), b: make([]float64, rows), x: make([]float64, cols), d: make([]float64, rows)}
	for i := range tc.w {
		tc.w[i] = draw()
	}
	for r := 0; r < rows; r++ {
		tc.b[r], tc.d[r] = draw(), draw()
	}
	for i := range tc.x {
		if rng.Float64() < density {
			tc.x[i] = draw()
		} else if rng.Intn(2) == 0 {
			tc.x[i] = math.Copysign(0, -1)
		}
	}
	return tc
}

// TestRowKernelsTable walks every shape from 0×0 to 9×9 — all the tails of
// the four-wide blocking — with no non-zero input, all non-zero, and a
// mix, on ordinary and on special values.
func TestRowKernelsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for rows := 0; rows <= 9; rows++ {
		for cols := 0; cols <= 9; cols++ {
			for _, density := range []float64{0, 1, 0.3} {
				for _, special := range []float64{0, 0.5} {
					tc := randomRowCase(rng, rows, cols, density, special)
					if bad := checkRowKernels(tc); bad != "" {
						t.Fatalf("%s differs from the naive loop on %+v", bad, tc)
					}
				}
			}
		}
	}
}

// TestRowKernelsQuick is the same contract on random shapes up to the
// MLP's first layer width.
func TestRowKernelsQuick(t *testing.T) {
	prop := func(seed int64, rows, cols uint8, density, special float64) bool {
		rng := rand.New(rand.NewSource(seed))
		density, special = math.Abs(math.Mod(density, 1)), math.Abs(math.Mod(special, 1))
		tc := randomRowCase(rng, int(rows%35), int(cols)*4%801, density, special)
		if bad := checkRowKernels(tc); bad != "" {
			t.Logf("%s differs (seed %d, %dx%d)", bad, seed, tc.rows, tc.cols)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAXPY4MatchesSequentialAXPY pins AXPY4 bit for bit to four
// AXPYInPlace calls in order, on every length of a short row, the SVM's
// 24 features, a destination of −0s, and NaN and ±Inf coefficients.
func TestAXPY4MatchesSequentialAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inf, nan := math.Inf(1), math.NaN()
	coeffs := [][4]float64{
		{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
		{0, math.Copysign(0, -1), 1, -1},
		{nan, 1, 2, 3},
		{1, inf, -inf, 2},
		{-inf, 0.5, nan, inf},
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24} {
		for _, negZero := range []bool{false, true} {
			for _, c := range coeffs {
				d := make([]float64, n)
				for j := range d {
					if negZero {
						d[j] = math.Copysign(0, -1)
					} else {
						d[j] = rng.NormFloat64()
					}
				}
				var xs [4][]float64
				for r := range xs {
					xs[r] = make([]float64, n)
					for j := range xs[r] {
						xs[r][j] = rng.NormFloat64()
					}
				}
				want := Vector(append([]float64(nil), d...))
				for r, x := range xs {
					want.AXPYInPlace(c[r], x)
				}
				AXPY4(d, c[0], c[1], c[2], c[3], xs[0], xs[1], xs[2], xs[3])
				for j := range d {
					if math.Float64bits(d[j]) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d negZero=%v c=%v: element %d = %x, four AXPYInPlace give %x",
							n, negZero, c, j, math.Float64bits(d[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestRowKernelsPanicOnMismatch pins the dimension checks.
func TestRowKernelsPanicOnMismatch(t *testing.T) {
	v2, v3 := make([]float64, 2), make([]float64, 3)
	for name, f := range map[string]func(){
		"Dots4From":    func() { Dots4From(0, 0, 0, 0, v3, v3, v2, v3, v3) },
		"AXPY4":        func() { AXPY4(v3, 1, 1, 1, 1, v3, v3, v3, v2) },
		"AffineTo":     func() { AffineTo(v2, v3, v2, v2) },
		"GatherAXPY":   func() { GatherAXPY(v2, v3, nil, nil) },
		"GatherAXPY 0": func() { GatherAXPY(nil, v2, nil, nil) },
		"ScatterAXPY":  func() { ScatterAXPY(v3, v2, nil, nil) },
		"Compact":      func() { Compact(make([]int, 2), v3, v3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched operands", name)
				}
			}()
			f()
		}()
	}
}

// FuzzRowKernels feeds raw float bit patterns — NaNs, infinities and
// denormals included — through every kernel.
func FuzzRowKernels(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(5), uint8(3), seed)
	f.Add(uint8(4), uint8(0), []byte{})
	f.Add(uint8(1), uint8(9), seed[:40])
	f.Fuzz(func(t *testing.T, rows, cols uint8, raw []byte) {
		tc := rowCase{rows: int(rows % 10), cols: int(cols % 10)}
		next := func() float64 {
			if len(raw) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			return v
		}
		fill := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = next()
			}
			return out
		}
		tc.x, tc.b, tc.d, tc.w = fill(tc.cols), fill(tc.rows), fill(tc.rows), fill(tc.rows*tc.cols)
		if bad := checkRowKernels(tc); bad != "" {
			t.Fatalf("%s differs from the naive loop on %+v", bad, tc)
		}
	})
}
