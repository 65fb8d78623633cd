package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenResult holds the eigendecomposition of a symmetric matrix:
// A·V[:,k] = Values[k]·V[:,k], with Values sorted ascending and the columns
// of Vectors the corresponding orthonormal eigenvectors.
type EigenResult struct {
	Values  []float64
	Vectors *Matrix // column k is the eigenvector for Values[k]
}

// SymEigen computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It is O(n³) per sweep and converges in a handful
// of sweeps for the matrix sizes SNAP uses (network weight matrices, n ≤ a
// few hundred). The input is not modified.
//
// SymEigen returns an error if a is not square or not symmetric (within
// 1e-9 relative to its largest entry), or if Jacobi fails to converge.
func SymEigen(a *Matrix) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: SymEigen: matrix is %dx%d, not square", a.Rows, a.Cols)
	}
	symTol := 1e-9 * math.Max(1, a.MaxAbs())
	if !a.IsSymmetric(symTol) {
		return nil, fmt.Errorf("linalg: SymEigen: matrix is not symmetric within %g", symTol)
	}
	n := a.Rows
	if n == 0 {
		return &EigenResult{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}

	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagonalNorm(w)
		if off <= 1e-14*math.Max(1, w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Classic Jacobi rotation choice (Golub & Van Loan 8.4).
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
		if sweep == maxSweeps-1 {
			return nil, fmt.Errorf("linalg: SymEigen: Jacobi did not converge in %d sweeps (off-diagonal norm %g)", maxSweeps, offDiagonalNorm(w))
		}
	}

	res := &EigenResult{
		Values:  make([]float64, n),
		Vectors: NewMatrix(n, n),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = w.At(i, i)
	}
	sort.Slice(idx, func(x, y int) bool { return diag[idx[x]] < diag[idx[y]] })
	for k, src := range idx {
		res.Values[k] = diag[src]
		for i := 0; i < n; i++ {
			res.Vectors.Set(i, k, v.At(i, src))
		}
	}
	return res, nil
}

// applyJacobiRotation applies the rotation J(p,q,θ) with cos=c, sin=s to w
// (two-sided: w ← JᵀwJ) and accumulates it into the eigenvector matrix v
// (one-sided: v ← vJ). It walks Data one row slice at a time, updating
// columns p and q of w and of v in the same pass over the rows (v is
// independent of w), and then rows p and q of w; every entry gets the
// arithmetic, in the order, of the element-wise At/Set form.
func applyJacobiRotation(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	wd, vd := w.Data, v.Data
	for i := 0; i < n; i++ {
		r := wd[i*n : i*n+n]
		wip, wiq := r[p], r[q]
		r[p] = c*wip - s*wiq
		r[q] = s*wip + c*wiq
		r = vd[i*n : i*n+n]
		vip, viq := r[p], r[q]
		r[p] = c*vip - s*viq
		r[q] = s*vip + c*viq
	}
	rp := wd[p*n : p*n+n]
	rq := wd[q*n : q*n+n]
	for j, wpj := range rp {
		wqj := rq[j]
		rp[j] = c*wpj - s*wqj
		rq[j] = s*wpj + c*wqj
	}
}

func offDiagonalNorm(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		r := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range r {
			if i != j {
				s += x * x
			}
		}
	}
	return math.Sqrt(s)
}

// Vector returns eigenvector k as a fresh Vector.
func (e *EigenResult) Vector(k int) Vector {
	out := make(Vector, e.Vectors.Rows)
	for i := range out {
		out[i] = e.Vectors.At(i, k)
	}
	return out
}

// Spectrum summarizes the eigenvalues of a symmetric doubly stochastic
// matrix in the terms the SNAP paper uses.
type Spectrum struct {
	All []float64 // ascending

	// LambdaMin is λmin(W), the smallest eigenvalue.
	LambdaMin float64
	// LambdaBarMax is λ̄max(W): the paper defines it as the largest
	// eigenvalue strictly smaller than 1. For a connected graph's
	// stochastic matrix that is exactly the second-largest eigenvalue,
	// which is what we report — robustly: when the unit eigenvalue has
	// multiplicity ≥ 2 (a disconnected mixing matrix) LambdaBarMax is 1,
	// correctly signalling "no spectral gap" instead of silently skipping
	// the extra unit eigenvalues.
	LambdaBarMax float64
	// SLEM is the second-largest eigenvalue modulus,
	// max(λ̄max, -λmin) — the quantity that governs mixing speed.
	SLEM float64
}

// AnalyzeSpectrum eigendecomposes w (which must be symmetric) and returns
// the spectral summary. The tolerance for "equal to 1" is 1e-9.
func AnalyzeSpectrum(w *Matrix) (*Spectrum, error) {
	eig, err := SymEigen(w)
	if err != nil {
		return nil, err
	}
	return SpectrumFromEigen(eig), nil
}

// SpectrumFromEigen summarizes an already-computed eigendecomposition.
func SpectrumFromEigen(eig *EigenResult) *Spectrum {
	return spectrumFromValues(eig.Values)
}

func spectrumFromValues(vals []float64) *Spectrum {
	sp := &Spectrum{All: vals}
	if len(vals) == 0 {
		return sp
	}
	sp.LambdaMin = vals[0]
	// Second-largest eigenvalue; n = 1 has no second mode, so report 0
	// (consensus over a single node is trivial).
	if len(vals) == 1 {
		sp.LambdaBarMax = 0
	} else {
		sp.LambdaBarMax = vals[len(vals)-2]
	}
	sp.SLEM = math.Max(sp.LambdaBarMax, -sp.LambdaMin)
	return sp
}
