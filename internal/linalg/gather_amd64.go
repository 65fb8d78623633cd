package linalg

// useAVX2 is decided once at start-up: the CPU has AVX2 and the
// operating system saves the YMM registers across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly bodies own the lanes of z or d they are given — 29 to 32
// (seven YMM registers and a last one of 1–4 lanes) or 1 to 4 (that last
// register alone) — at the same offset of every row of the matrix, whose
// rows are stride lanes long, and hold them in registers for the whole
// walk over idx, which must not be empty. Each reports false, before
// touching the row, at the first index that is not below rows.

//go:noescape
func gatherAXPY32(z, w []float64, stride, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func gatherAXPY4(z, w []float64, stride, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func scatterAXPY32(g []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func scatterAXPY4(g []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)

// blockLanes is how many of the left lanes the next body takes: 32, or
// all of them from 29 to 31, for the 32-lane body; otherwise up to 4 for
// the 4-lane body. At 30 hidden units one 32-lane pass does the row.
func blockLanes(left int) int {
	switch {
	case left >= 32:
		return 32
	case left > 28:
		return left
	default:
		return min(left, 4)
	}
}

// gatherAXPYSIMD runs GatherAXPY on the AVX2 bodies, block by block, and
// reports whether it did: false without AVX2.
func gatherAXPYSIMD(z, w []float64, rows int, idx []int, val []float64) bool {
	if !useAVX2 {
		return false
	}
	stride := len(z)
	for h := 0; h < stride; {
		n := blockLanes(stride - h)
		var ok bool
		if n > 4 {
			ok = gatherAXPY32(z[h:h+n], w[h:], stride, rows, idx, val)
		} else {
			ok = gatherAXPY4(z[h:h+n], w[h:], stride, rows, idx, val)
		}
		if !ok {
			badRow()
		}
		h += n
	}
	return true
}

// scatterAXPYSIMD is gatherAXPYSIMD for ScatterAXPY.
func scatterAXPYSIMD(g, d []float64, rows int, idx []int, val []float64) bool {
	if !useAVX2 {
		return false
	}
	stride := len(d)
	for h := 0; h < stride; {
		n := blockLanes(stride - h)
		var ok bool
		if n > 4 {
			ok = scatterAXPY32(g[h:], stride, d[h:h+n], rows, idx, val)
		} else {
			ok = scatterAXPY4(g[h:], stride, d[h:h+n], rows, idx, val)
		}
		if !ok {
			badRow()
		}
		h += n
	}
	return true
}
