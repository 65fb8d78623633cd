package linalg

import "math"

// Destination-buffer kernels: the allocation-free counterparts of the
// value-returning vector ops. Every kernel writes its result into a
// caller-owned dst of matching length (panicking on mismatch, like the
// rest of the package) so a hot loop can rotate a fixed set of scratch
// vectors instead of allocating per iteration.
//
// dst may alias v (the first operand) in every kernel — each element is
// read before it is written — but must not partially overlap any operand.

// ScaleTo sets dst = c*v and returns dst.
func ScaleTo(dst Vector, c float64, v Vector) Vector {
	checkLen(dst, v)
	for i, x := range v {
		dst[i] = c * x
	}
	return dst
}

// AXPYTo sets dst = v + c*w and returns dst.
func AXPYTo(dst Vector, v Vector, c float64, w Vector) Vector {
	checkLen(dst, v)
	checkLen(v, w)
	for i, x := range v {
		dst[i] = x + c*w[i]
	}
	return dst
}

// MixTo computes the weighted neighbor mix dst = c*v + Σ_k ws[k]*xs[k]
// — the Σ_j w_ij·x_j term of the EXTRA iteration, fused into one pass.
// Per element the additions happen in slice order k = 0, 1, ..., so the
// result is bitwise-identical to the sequential ScaleTo-then-AXPYTo
// formulation it replaces (each element's accumulation order is the
// same); xs must therefore already be in a deterministic order (the
// engine keeps neighbors sorted by id).
func MixTo(dst Vector, c float64, v Vector, ws []float64, xs []Vector) Vector {
	checkLen(dst, v)
	if len(ws) != len(xs) {
		panic("linalg: MixTo weight/vector count mismatch")
	}
	for _, x := range xs {
		checkLen(v, x)
	}
	for i, x := range v {
		s := c * x
		for k, w := range ws {
			s += w * xs[k][i]
		}
		dst[i] = s
	}
	return dst
}

// DistInf returns max_i |v[i] - w[i]| without materializing the
// difference vector (the consensus-residual inner loop).
func DistInf(v, w Vector) float64 {
	checkLen(v, w)
	var m float64
	for i, x := range v {
		if d := math.Abs(x - w[i]); d > m {
			m = d
		}
	}
	return m
}
