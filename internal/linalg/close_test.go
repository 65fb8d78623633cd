package linalg

import "math"

// closeTo reports a relative-tolerance float comparison for test
// expectations whose reference is computed another way: results
// legitimately differ in the last ulps across evaluation orders, FMA
// contraction, and architectures. Where two paths must agree bit for
// bit, compare math.Float64bits instead (bitsEqual).
func closeTo(got, want float64) bool {
	const tol = 1e-12
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}
