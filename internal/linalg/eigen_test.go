package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := fromRows([][]float64{
		{3, 0, 0},
		{0, -1, 0},
		{0, 0, 2},
	})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i, v := range want {
		if math.Abs(eig.Values[i]-v) > 1e-12 {
			t.Errorf("Values[%d] = %v, want %v", i, eig.Values[i], v)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := fromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-1) > 1e-12 || math.Abs(eig.Values[1]-3) > 1e-12 {
		t.Errorf("Values = %v, want [1 3]", eig.Values)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	a := randomSymmetric(rng, n)
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check A v_k = λ_k v_k for every k.
	for k := 0; k < n; k++ {
		v := eig.Vector(k)
		av := NewVector(n)
		for i := range av {
			av[i] = a.Row(i).Dot(v)
		}
		lv := ScaleTo(NewVector(n), eig.Values[k], v)
		if !av.Equal(lv, 1e-8) {
			t.Errorf("eigenpair %d: ||Av - λv||inf = %v", k, av.Sub(lv).NormInf())
		}
	}
	// Trace == sum of eigenvalues.
	var trace, sum float64
	for i, v := range eig.Values {
		trace += a.At(i, i)
		sum += v
	}
	if math.Abs(trace-sum) > 1e-9 {
		t.Errorf("trace %v != Σλ %v", trace, sum)
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSymmetric(rng, 6)
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// (VᵀV)_ij = Σ_k V_ki V_kj must be the identity.
	v := eig.Vectors
	for i := 0; i < v.Cols; i++ {
		for j := 0; j < v.Cols; j++ {
			var dot float64
			for k := 0; k < v.Rows; k++ {
				dot += v.At(k, i) * v.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Errorf("(VᵀV)[%d][%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {0, 1}})
	if _, err := SymEigen(a); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestSymEigenEmpty(t *testing.T) {
	eig, err := SymEigen(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(eig.Values) != 0 {
		t.Errorf("empty matrix produced %d eigenvalues", len(eig.Values))
	}
}

func TestSymEigenSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eig, err := SymEigen(randomSymmetric(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(eig.Values); i++ {
		if eig.Values[i] < eig.Values[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", eig.Values)
		}
	}
}

// Property test: for random symmetric matrices, eigen reconstruction
// holds: ||A - VΛVᵀ||max small.
func TestSymEigenReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		a := randomSymmetric(rng, n)
		eig, err := SymEigen(a)
		if err != nil {
			return false
		}
		// (VΛVᵀ)_ij = Σ_k V_ik λ_k V_jk.
		v := eig.Vectors
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var recon float64
				for k, lam := range eig.Values {
					recon += v.At(i, k) * lam * v.At(j, k)
				}
				if math.Abs(recon-a.At(i, j)) >= 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeSpectrumStochastic(t *testing.T) {
	// Complete-graph averaging matrix J/n has eigenvalues {1, 0, ..., 0}.
	n := 4
	w := NewMatrix(n, n)
	for i := range w.Data {
		w.Data[i] = 1.0 / float64(n)
	}
	sp, err := AnalyzeSpectrum(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.LambdaBarMax) > 1e-9 {
		t.Errorf("LambdaBarMax = %v, want 0", sp.LambdaBarMax)
	}
	if math.Abs(sp.LambdaMin) > 1e-9 {
		t.Errorf("LambdaMin = %v, want 0", sp.LambdaMin)
	}
	if math.Abs(sp.SLEM) > 1e-9 {
		t.Errorf("SLEM = %v, want 0", sp.SLEM)
	}
}

func TestAnalyzeSpectrumRingLike(t *testing.T) {
	// Lazy random walk on a 3-cycle: W = (1/2)I + (1/4)A. Eigenvalues of the
	// cycle adjacency are {2, -1, -1}, so W has {1, 1/4, 1/4}.
	w := fromRows([][]float64{
		{0.5, 0.25, 0.25},
		{0.25, 0.5, 0.25},
		{0.25, 0.25, 0.5},
	})
	sp, err := AnalyzeSpectrum(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.LambdaBarMax-0.25) > 1e-9 {
		t.Errorf("LambdaBarMax = %v, want 0.25", sp.LambdaBarMax)
	}
	if math.Abs(sp.SLEM-0.25) > 1e-9 {
		t.Errorf("SLEM = %v, want 0.25", sp.SLEM)
	}
}

// TestAnalyzeSpectrumDegenerate covers the two ends the weight optimizer
// leans on: W = I has no spectral gap (λ̄max = 1, which OptimizeBest
// rejects), and a single node has no second mode (λ̄max = 0).
func TestAnalyzeSpectrumDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		w                       *Matrix
		lambdaBarMax, lambdaMin float64
	}{
		{"identity", Identity(5), 1, 1},
		{"single", Identity(1), 0, 1},
	} {
		sp, err := AnalyzeSpectrum(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(sp.LambdaBarMax, tc.lambdaBarMax) || !closeTo(sp.LambdaMin, tc.lambdaMin) {
			t.Errorf("%s: (λ̄max, λmin) = (%v, %v), want (%v, %v)",
				tc.name, sp.LambdaBarMax, sp.LambdaMin, tc.lambdaBarMax, tc.lambdaMin)
		}
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}
