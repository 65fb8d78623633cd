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

// The assembly bodies work on 32 lanes (eight YMM registers) or 4 lanes
// (one) at the start of z or d, holding those lanes in registers for the
// whole walk over idx. Each reports false, before touching the row, at
// the first index that is not below rows.

//go:noescape
func gatherAXPY32(z, wT []float64, stride, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func gatherAXPY4(z, wT []float64, stride, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func scatterAXPY32(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)

//go:noescape
func scatterAXPY4(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) (ok bool)

// gatherAXPYSIMD runs GatherAXPY's lanes in blocks of 32, then 4, and
// returns how many it did; the Go body does the rest.
func gatherAXPYSIMD(z, wT []float64, stride, rows int, idx []int, val []float64) int {
	if !useAVX2 {
		return 0
	}
	h := 0
	for ; h+32 <= len(z); h += 32 {
		if !gatherAXPY32(z[h:h+32], wT[h:], stride, rows, idx, val) {
			badRow()
		}
	}
	for ; h+4 <= len(z); h += 4 {
		if !gatherAXPY4(z[h:h+4], wT[h:], stride, rows, idx, val) {
			badRow()
		}
	}
	return h
}

// scatterAXPYSIMD is gatherAXPYSIMD for ScatterAXPY.
func scatterAXPYSIMD(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) int {
	if !useAVX2 {
		return 0
	}
	h := 0
	for ; h+32 <= len(d); h += 32 {
		if !scatterAXPY32(gT[h:], stride, d[h:h+32], rows, idx, val) {
			badRow()
		}
	}
	for ; h+4 <= len(d); h += 4 {
		if !scatterAXPY4(gT[h:], stride, d[h:h+4], rows, idx, val) {
			badRow()
		}
	}
	return h
}
