// Package linalg provides the dense linear-algebra primitives SNAP needs:
// vectors, matrices, and a symmetric eigendecomposition. It is deliberately
// small — just enough to express the EXTRA consensus iteration and the
// spectral weight-matrix optimization — and uses float64 throughout.
//
// All operations panic on dimension mismatch; such a mismatch is a
// programmer error, never a data-dependent condition.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	checkLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	checkLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c*v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v.
//
//snap:alloc-free
func (v Vector) AddInPlace(w Vector) Vector {
	checkLen(v, w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// AXPYInPlace sets v = v + c*w and returns v.
//
//snap:alloc-free
func (v Vector) AXPYInPlace(c float64, w Vector) Vector {
	checkLen(v, w)
	for i := range v {
		v[i] += c * w[i]
	}
	return v
}

// Dot returns the inner product <v, w>.
//
//snap:alloc-free
func (v Vector) Dot(w Vector) float64 {
	checkLen(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// NormInf returns the max-absolute-value norm of v.
//
//snap:alloc-free
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of v.
//
//snap:alloc-free
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Fill sets every entry of v to c and returns v.
//
//snap:alloc-free
func (v Vector) Fill(c float64) Vector {
	for i := range v {
		v[i] = c
	}
	return v
}

// Equal reports whether v and w have the same length and every pair of
// entries differs by at most tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

//snap:alloc-free
func checkLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: vector length mismatch %d != %d", len(v), len(w)))
	}
}
