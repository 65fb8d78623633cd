package linalg

// Input-major kernels: a layer's weights stored one row per input (row j
// holds the weights fanning out of input j to every output unit, one lane
// per unit, rows packed back to back), walked for an input compacted into
// (idx, val). Output unit h is lane h of a row, so each unit's sum is its
// own chain and the lanes of a row are independent: the amd64 body runs
// four units per AVX2 register, one register lane per chain, and still
// adds every product in the same left-to-right order as the naive loop —
// a VMULPD then a VADDPD, never a fused multiply-add (DESIGN.md §10). The
// Go bodies below run every lane on CPUs without AVX2 and on other
// architectures; the tests hold both to the naive loops.

// GatherAXPY adds to z the rows of the input-major matrix w that idx
// names, each scaled by its val: z[h] += Σ_k w[idx[k]·len(z)+h]·val[k],
// every z[h] summed left to right over k from the value it holds. Rows
// are len(z) lanes long, so z must not be empty and len(w) must be a
// multiple of it. Seeded with a bias it is the affine map of a layer
// whose weights are w, bit for bit the same as the row-major loop over
// the transposed matrix. It panics when an index names no row of w.
func GatherAXPY(z, w []float64, idx []int, val []float64) {
	rows := checkInputMajor(len(z), len(w))
	val = val[:len(idx)]
	if len(idx) == 0 {
		return
	}
	if !gatherAXPYSIMD(z, w, rows, idx, val) {
		gatherAXPYGo(z, w, idx, val)
	}
}

// ScatterAXPY adds d, scaled by val[k], to the row of the input-major
// matrix g that idx[k] names: g[idx[k]·len(d)+h] += d[h]·val[k], in
// order of k. Rows are len(d) lanes long. It is the rank-one update d·xᵀ
// of a compacted x applied to the transposed matrix, bit for bit the same
// as the row-major loop. It panics when an index names no row of g.
func ScatterAXPY(g, d []float64, idx []int, val []float64) {
	rows := checkInputMajor(len(d), len(g))
	val = val[:len(idx)]
	if len(idx) == 0 {
		return
	}
	if !scatterAXPYSIMD(g, d, rows, idx, val) {
		scatterAXPYGo(g, d, idx, val)
	}
}

// checkInputMajor validates an input-major matrix of size elements whose
// rows are lanes long, returning its row count.
func checkInputMajor(lanes, size int) int {
	if lanes == 0 || size%lanes != 0 {
		panic("linalg: input-major matrix shape mismatch")
	}
	return size / lanes
}

// gatherAXPYGo holds eight lanes, then four, in registers for a whole
// walk over idx, as the assembly does eight registers' worth: independent
// chains keep the FP pipeline busy where one lane at a time would wait on
// each add, and each walk's index loads and bounds checks serve more
// lanes.
func gatherAXPYGo(z, w []float64, idx []int, val []float64) {
	stride := len(z)
	h := 0
	for ; h+8 <= stride; h += 8 {
		z0, z1, z2, z3, z4, z5, z6, z7 := z[h], z[h+1], z[h+2], z[h+3], z[h+4], z[h+5], z[h+6], z[h+7]
		for k, j := range idx {
			r, v := w[j*stride+h:j*stride+h+8], val[k]
			z0 += r[0] * v
			z1 += r[1] * v
			z2 += r[2] * v
			z3 += r[3] * v
			z4 += r[4] * v
			z5 += r[5] * v
			z6 += r[6] * v
			z7 += r[7] * v
		}
		z[h], z[h+1], z[h+2], z[h+3], z[h+4], z[h+5], z[h+6], z[h+7] = z0, z1, z2, z3, z4, z5, z6, z7
	}
	for ; h+4 <= stride; h += 4 {
		z0, z1, z2, z3 := z[h], z[h+1], z[h+2], z[h+3]
		for k, j := range idx {
			r, v := w[j*stride+h:j*stride+h+4], val[k]
			z0 += r[0] * v
			z1 += r[1] * v
			z2 += r[2] * v
			z3 += r[3] * v
		}
		z[h], z[h+1], z[h+2], z[h+3] = z0, z1, z2, z3
	}
	for ; h < stride; h++ {
		zh := z[h]
		for k, j := range idx {
			zh += w[j*stride+h] * val[k]
		}
		z[h] = zh
	}
}

// scatterAXPYGo updates a row four lanes at a time, which spares three
// in four of the loop's bounds checks and branches.
func scatterAXPYGo(g, d []float64, idx []int, val []float64) {
	stride := len(d)
	for k, j := range idx {
		row, v := g[j*stride:(j+1)*stride], val[k]
		h := 0
		for ; h+4 <= stride; h += 4 {
			r, c := row[h:h+4:h+4], d[h:h+4:h+4]
			r[0] += c[0] * v
			r[1] += c[1] * v
			r[2] += c[2] * v
			r[3] += c[3] * v
		}
		for ; h < stride; h++ {
			row[h] += d[h] * v
		}
	}
}

// badRow reports an index outside the input-major matrix; the assembly
// bodies check every index before they touch its row.
func badRow() { panic("linalg: input-major row index out of range") }
