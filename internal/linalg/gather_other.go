//go:build !amd64

package linalg

const useAVX2 = false

func gatherAXPYSIMD(z, wT []float64, stride, rows int, idx []int, val []float64) int { return 0 }

func scatterAXPYSIMD(gT []float64, stride int, d []float64, rows int, idx []int, val []float64) int {
	return 0
}
