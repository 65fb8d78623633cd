package linalg

// Input-major kernels: a layer's weights stored one row per input (row j
// holds the weights fanning out of input j to every output unit, stride
// entries a row), walked for an input compacted into (idx, val). Output
// unit h is lane h of a row, so each unit's sum is its own chain and the
// lanes of a row are independent: the amd64 body runs four units per
// AVX2 register, one register lane per chain, and still adds every
// product in the same left-to-right order as the naive loop — a VMULPD
// then a VADDPD, never a fused multiply-add (DESIGN.md §10). The Go
// bodies below run the lanes the assembly leaves (fewer than four) and
// every lane on CPUs without AVX2 and on other architectures; the tests
// hold both to the naive loops.

// GatherAXPY adds to z the rows of the input-major matrix wT that idx
// names, each scaled by its val: z[h] += Σ_k wT[idx[k]·stride+h]·val[k],
// every z[h] summed left to right over k from the value it holds, for
// h < len(z) ≤ stride. Seeded with a bias it is SparseAffineTo over the
// transposed matrix, bit for bit. It panics when an index names no row
// of wT.
func GatherAXPY(z, wT []float64, stride int, idx []int, val []float64) {
	rows := checkInputMajor(len(z), len(wT), stride)
	val = val[:len(idx)]
	if len(idx) == 0 {
		return
	}
	if h := gatherAXPYSIMD(z, wT, stride, rows, idx, val); h < len(z) {
		gatherAXPYGo(z[h:], wT[h:], stride, idx, val)
	}
}

// ScatterAXPY adds d, scaled by val[k], to the row of the input-major
// matrix gT that idx[k] names: gT[idx[k]·stride+h] += d[h]·val[k] for
// h < len(d) ≤ stride, in order of k. It is the rank-one update d·xᵀ of
// a compacted x applied to the transposed matrix, bit for bit the same
// as the row-major walk. It panics when an index names no row of gT.
func ScatterAXPY(gT []float64, stride int, d []float64, idx []int, val []float64) {
	rows := checkInputMajor(len(d), len(gT), stride)
	val = val[:len(idx)]
	if len(idx) == 0 {
		return
	}
	if h := scatterAXPYSIMD(gT, stride, d, rows, idx, val); h < len(d) {
		scatterAXPYGo(gT[h:], stride, d[h:], idx, val)
	}
}

// InputMajorSIMD reports whether GatherAXPY and ScatterAXPY run on SIMD
// lanes on this CPU. Their Go bodies are no faster than the row-major
// kernels (SparseAffineTo, SparseOuterAdd), so without SIMD a caller
// that would transpose a matrix just to use them should not.
func InputMajorSIMD() bool { return useAVX2 }

// checkInputMajor validates an input-major matrix of size elements whose
// rows are stride long and of which lanes lanes are used, returning its
// row count.
func checkInputMajor(lanes, size, stride int) int {
	if stride <= 0 || lanes > stride || size%stride != 0 {
		panic("linalg: input-major matrix shape mismatch")
	}
	return size / stride
}

// gatherAXPYGo holds four lanes in registers for a whole walk over idx,
// as the assembly does eight registers' worth: four independent chains
// keep the FP pipeline busy where one lane at a time would wait on each
// add.
func gatherAXPYGo(z, wT []float64, stride int, idx []int, val []float64) {
	h := 0
	for ; h+4 <= len(z); h += 4 {
		z0, z1, z2, z3 := z[h], z[h+1], z[h+2], z[h+3]
		for k, j := range idx {
			w, v := wT[j*stride+h:j*stride+h+4], val[k]
			z0 += w[0] * v
			z1 += w[1] * v
			z2 += w[2] * v
			z3 += w[3] * v
		}
		z[h], z[h+1], z[h+2], z[h+3] = z0, z1, z2, z3
	}
	for ; h < len(z); h++ {
		zh := z[h]
		for k, j := range idx {
			zh += wT[j*stride+h] * val[k]
		}
		z[h] = zh
	}
}

func scatterAXPYGo(gT []float64, stride int, d []float64, idx []int, val []float64) {
	for k, j := range idx {
		row, v := gT[j*stride:j*stride+len(d)], val[k]
		for h, c := range d {
			row[h] += c * v
		}
	}
}

// badRow reports an index outside the input-major matrix; the assembly
// bodies check every index before they touch its row.
func badRow() { panic("linalg: input-major row index out of range") }
