package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -1, 0.5}
	got := v.Add(w)
	want := Vector{5, 1, 3.5}
	if !got.Equal(want, 0) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if diff := got.Sub(w); !diff.Equal(v, 1e-15) {
		t.Errorf("(v+w)-w = %v, want %v", diff, v)
	}
}

func TestVectorScale(t *testing.T) {
	v := Vector{1, -2, 0}
	got := v.Scale(-3)
	if want := (Vector{-3, 6, 0}); !got.Equal(want, 0) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(v); !closeTo(got, 25) {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := v.NormInf(); !closeTo(got, 4) {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestVectorSumMean(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	if got := v.Sum(); !closeTo(got, 10) {
		t.Errorf("Sum = %v, want 10", got)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if !closeTo(v[0], 1) {
		t.Errorf("Clone aliases storage: v = %v", v)
	}
}

func TestVectorInPlaceOps(t *testing.T) {
	v := Vector{1, 1}
	v.AddInPlace(Vector{2, 3})
	if want := (Vector{3, 4}); !v.Equal(want, 0) {
		t.Errorf("AddInPlace = %v, want %v", v, want)
	}
	v.AXPYInPlace(2, Vector{1, -1})
	if want := (Vector{5, 2}); !v.Equal(want, 0) {
		t.Errorf("AXPYInPlace = %v, want %v", v, want)
	}
}

func TestVectorFill(t *testing.T) {
	v := NewVector(3).Fill(7)
	if want := (Vector{7, 7, 7}); !v.Equal(want, 0) {
		t.Errorf("Fill = %v, want %v", v, want)
	}
}

func TestVectorEqualLengthMismatch(t *testing.T) {
	if (Vector{1}).Equal(Vector{1, 2}, 1) {
		t.Error("vectors of different length reported equal")
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched lengths did not panic")
		}
	}()
	_ = Vector{1}.Add(Vector{1, 2})
}

// Property: dot product is symmetric and Cauchy-Schwarz holds.
func TestVectorDotProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := clampVec(a[:]), clampVec(b[:])
		d1, d2 := v.Dot(w), w.Dot(v)
		if math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
			return false
		}
		bound := math.Sqrt(v.Dot(v)) * math.Sqrt(w.Dot(w))
		return math.Abs(d1) <= bound+1e-9*(1+bound)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: (v + w) - w == v.
func TestVectorAddSubRoundTrip(t *testing.T) {
	f := func(a, b [6]float64) bool {
		v, w := clampVec(a[:]), clampVec(b[:])
		return v.Add(w).Sub(w).Equal(v, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampVec sanitizes quick-generated float64s (NaN/Inf/huge) into a bounded
// range so arithmetic identities are numerically meaningful.
func clampVec(xs []float64) Vector {
	out := make(Vector, len(xs))
	for i, x := range xs {
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			out[i] = 0
		case x > 1e6:
			out[i] = 1e6
		case x < -1e6:
			out[i] = -1e6
		default:
			out[i] = x
		}
	}
	return out
}
