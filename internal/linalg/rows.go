package linalg

import "math"

// Row kernels: the inner loops of the models' dense forward and
// backward passes — dot products of parameter rows against one input and
// the matching scaled-row updates — and Compact, which turns a sparse
// input into the (idx, val) pairs the input-major kernels of gather.go
// walk.
//
// Contract (DESIGN.md §10): every accumulator is summed strictly left to
// right starting from the value the caller seeds it with, exactly as the
// naive loop `z := seed; for i := range x { z += a[i] * x[i] }` does, so
// each kernel is bitwise-identical to that loop. The speed comes from
// running four such chains side by side (four rows against one shared
// operand): a floating-point add must wait for the previous add of its
// own chain, but not for the other three. No sum is ever split across
// several accumulators or reordered.
//
// The kernels panic on a length mismatch like the rest of the package.

// Dots4From returns the four sums z_r + Σ_i a_r[i]·x[i], each summed left
// to right: four rows against one shared x (four hidden units against one
// input, or four samples against one weight vector). One row from a zero
// seed is Vector.Dot.
func Dots4From(z0, z1, z2, z3 float64, a0, a1, a2, a3, x []float64) (float64, float64, float64, float64) {
	checkLen(a0, x)
	checkLen(a1, x)
	checkLen(a2, x)
	checkLen(a3, x)
	for i, xi := range x {
		z0 += a0[i] * xi
		z1 += a1[i] * xi
		z2 += a2[i] * xi
		z3 += a3[i] * xi
	}
	return z0, z1, z2, z3
}

// AXPY4 adds four scaled rows to d in order: per element,
// d[j] = (((d[j] + c0·x0[j]) + c1·x1[j]) + c2·x2[j]) + c3·x3[j], which is
// bitwise four AXPYInPlace calls one after the other with one load and
// one store of d instead of four. No row may overlap d.
func AXPY4(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	checkLen(x0, d)
	checkLen(x1, d)
	checkLen(x2, d)
	checkLen(x3, d)
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	for j := range d {
		s := d[j] + c0*x0[j]
		s += c1 * x1[j]
		s += c2 * x2[j]
		s += c3 * x3[j]
		d[j] = s
	}
}

// Compact writes the non-zero entries of x, in order, to val and their
// positions to idx, and returns how many there are. idx and val must be
// at least as long as x. Dropping an exact zero (of either sign) from a
// dot product or a rank-one update does not change a bit of the result
// as long as the other factor is finite (w·0 = ±0, and z + ±0 = z), with
// one exception no consumer can observe: a running sum that is exactly
// −0 stays −0 where the dense loop would have turned it into +0.
func Compact(idx []int, val, x []float64) int {
	idx, val = idx[:len(x)], val[:len(x)]
	n := 0
	for i, xi := range x {
		// Store first, then advance only past a non-zero: which entries
		// are zero is data the branch predictor cannot learn, and the
		// test on the bits (sign shifted out, so ±0 → 0 and NaN stays)
		// compiles to a conditional move instead of a jump.
		idx[n], val[n] = i, xi
		if math.Float64bits(xi)<<1 != 0 {
			n++
		}
	}
	return n
}

// AffineTo sets out[r] = b[r] + Σ_i w[r·cols+i]·x[i] for the row-major
// len(out)×len(x) matrix w, every row summed left to right from its
// bias. Rows run four at a time; a last block of fewer than four repeats
// the final row, so it costs one four-chain pass instead of up to three
// single-chain ones.
func AffineTo(out, w, b, x []float64) {
	rows, cols := len(out), len(x)
	checkLen(out, b)
	if len(w) != rows*cols {
		panic("linalg: AffineTo matrix size mismatch")
	}
	for r := 0; r < rows; r += 4 {
		r1, r2, r3 := min(r+1, rows-1), min(r+2, rows-1), min(r+3, rows-1)
		out[r], out[r1], out[r2], out[r3] = Dots4From(b[r], b[r1], b[r2], b[r3],
			w[r*cols:(r+1)*cols], w[r1*cols:(r1+1)*cols], w[r2*cols:(r2+1)*cols], w[r3*cols:(r3+1)*cols], x)
	}
}
