package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := MatrixFromRows([][]float64{
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
	a := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
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
		av := a.MulVec(v)
		lv := v.Scale(eig.Values[k])
		if !av.Equal(lv, 1e-8) {
			t.Errorf("eigenpair %d: ||Av - λv||inf = %v", k, av.Sub(lv).NormInf())
		}
	}
	// Trace == sum of eigenvalues.
	var sum float64
	for _, v := range eig.Values {
		sum += v
	}
	if math.Abs(a.Trace()-sum) > 1e-9 {
		t.Errorf("trace %v != Σλ %v", a.Trace(), sum)
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSymmetric(rng, 6)
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	vt := eig.Vectors.Transpose()
	shouldBeI := vt.Mul(eig.Vectors)
	if diff := shouldBeI.Sub(Identity(6)).MaxAbs(); diff > 1e-10 {
		t.Errorf("VᵀV deviates from identity by %v", diff)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {0, 1}})
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
	if !closeTo(eig.Min(), eig.Values[0]) || !closeTo(eig.Max(), eig.Values[len(eig.Values)-1]) {
		t.Error("Min/Max disagree with sorted Values")
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
		lam := NewMatrix(n, n)
		for i, v := range eig.Values {
			lam.Set(i, i, v)
		}
		recon := eig.Vectors.Mul(lam).Mul(eig.Vectors.Transpose())
		return recon.Sub(a).MaxAbs() < 1e-8
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
	w := MatrixFromRows([][]float64{
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
