package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(n int, rng *rand.Rand) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// bitsEqual reports bitwise equality of two vectors (the determinism
// contract of the kernels; plain float == is banned in this package).
func bitsEqual(v, w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
			return false
		}
	}
	return true
}

func TestScaleTo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := randVec(9, rng)
	want := NewVector(9)
	for i, x := range v {
		want[i] = 2.5 * x
	}
	if got := ScaleTo(NewVector(9), 2.5, v); !bitsEqual(got, want) {
		t.Errorf("ScaleTo = %v, want %v", got, want)
	}
	// Aliasing dst = v is allowed.
	for i, x := range v {
		want[i] = -3 * x
	}
	ScaleTo(v, -3, v)
	if !bitsEqual(v, want) {
		t.Error("ScaleTo with dst aliasing v diverged")
	}
}

func TestAddSubTo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v, w := randVec(7, rng), randVec(7, rng)
	dst := NewVector(7)
	// Addition and subtraction into a buffer are AXPYTo with c = ±1:
	// x + 1·y rounds exactly as x + y, and x + (−1)·y as x − y.
	if got := AXPYTo(dst, v, 1, w); !bitsEqual(got, v.Add(w)) {
		t.Error("AXPYTo(1) differs from Add")
	}
	if got := AXPYTo(dst, v, -1, w); !bitsEqual(got, v.Sub(w)) {
		t.Error("AXPYTo(−1) differs from Sub")
	}
}

func TestAXPYTo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v, w := randVec(11, rng), randVec(11, rng)
	want := v.Clone().AXPYInPlace(0.7, w)
	dst := NewVector(11)
	if got := AXPYTo(dst, v, 0.7, w); !bitsEqual(got, want) {
		t.Error("AXPYTo mismatch")
	}
	// dst aliasing v.
	vc := v.Clone()
	AXPYTo(vc, vc, 0.7, w)
	if !bitsEqual(vc, want) {
		t.Error("AXPYTo with dst aliasing v diverged")
	}
}

// TestMixToMatchesSequential pins the determinism contract: MixTo must be
// bitwise-identical to the ScaleTo-then-AXPYInPlace formulation it fuses,
// since Engine.Step's recursion depends on reproducible float order.
func TestMixToMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, k = 13, 5
	v := randVec(n, rng)
	ws := make([]float64, k)
	xs := make([]Vector, k)
	for j := range xs {
		ws[j] = rng.Float64()
		xs[j] = randVec(n, rng)
	}
	want := ScaleTo(NewVector(n), 0.31, v)
	for j := range xs {
		want.AXPYInPlace(ws[j], xs[j])
	}
	dst := NewVector(n)
	if got := MixTo(dst, 0.31, v, ws, xs); !bitsEqual(got, want) {
		t.Errorf("MixTo = %v, want sequential result %v", got, want)
	}
	// Zero neighbors degenerates to ScaleTo.
	if got := MixTo(dst, 2, v, nil, nil); !bitsEqual(got, ScaleTo(NewVector(n), 2, v)) {
		t.Error("MixTo with no neighbors != ScaleTo")
	}
}

func TestDistInf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v, w := randVec(17, rng), randVec(17, rng)
	if got, want := DistInf(v, w), v.Sub(w).NormInf(); !closeTo(got, want) {
		t.Errorf("DistInf = %v, want %v", got, want)
	}
	if got := DistInf(v, v); got != 0 {
		t.Errorf("DistInf(v, v) = %v, want 0", got)
	}
}

func TestKernelsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	AXPYTo(NewVector(3), NewVector(3), 1, NewVector(4))
}

func TestKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v, w := randVec(64, rng), randVec(64, rng)
	dst := NewVector(64)
	ws := []float64{0.2, 0.3}
	xs := []Vector{randVec(64, rng), randVec(64, rng)}
	idx, val := []int{1, 5, 9}, []float64{0.5, -1, 2}
	m30 := randVec(30*16, rng) // 16 input-major rows of 30 lanes, the MLP's width
	if n := testing.AllocsPerRun(100, func() {
		ScaleTo(dst, 2, v)
		AXPYTo(dst, v, 3, w)
		MixTo(dst, 0.5, v, ws, xs)
		AXPY4(dst, 1, 2, 3, 4, v, w, xs[0], xs[1])
		GatherAXPY(dst[:4], w, idx, val)
		ScatterAXPY(dst, w[:4], idx, val)
		GatherAXPY(dst[:30], m30, idx, val)
		ScatterAXPY(m30, w[:30], idx, val)
		DistInf(v, w)
		v.NormInf()
		v.Sum()
	}); n != 0 {
		t.Errorf("kernels allocated %v times per run, want 0", n)
	}
}
