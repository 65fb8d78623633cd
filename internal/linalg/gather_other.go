//go:build !amd64

package linalg

const useAVX2 = false

func gatherAXPYSIMD(z, w []float64, rows int, idx []int, val []float64) bool { return false }

func scatterAXPYSIMD(g, d []float64, rows int, idx []int, val []float64) bool { return false }
