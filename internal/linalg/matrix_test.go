package linalg

import "testing"

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !closeTo(m.At(i, j), want) {
				t.Errorf("I(3)[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := fromRows([][]float64{{1, 2}, {2, 1}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := fromRows([][]float64{{1, 2}, {3, 1}})
	if asym.IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect := NewMatrix(2, 3)
	if rect.IsSymmetric(1) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestIsDoublyStochastic(t *testing.T) {
	w := fromRows([][]float64{
		{0.5, 0.5, 0},
		{0.5, 0.25, 0.25},
		{0, 0.25, 0.75},
	})
	if !w.IsDoublyStochastic(1e-12) {
		t.Error("valid doubly stochastic matrix rejected")
	}
	bad := fromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	if bad.IsDoublyStochastic(1e-6) {
		t.Error("matrix with column sums != 1 accepted")
	}
	neg := fromRows([][]float64{{1.5, -0.5}, {-0.5, 1.5}})
	if neg.IsDoublyStochastic(1e-6) {
		t.Error("matrix with negative entries accepted")
	}
}

func TestMatrixShapePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"NewNegative", func() { NewMatrix(-1, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad shape did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}
