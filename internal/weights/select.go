package weights

import (
	"fmt"
	"math"
	"sync"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
)

// BoundParams are the problem constants that appear in the paper's
// simplified linear-rate bound, eq. (17). The zero value selects the
// defaults below.
type BoundParams struct {
	// Alpha is the EXTRA step size α (default 0.01).
	Alpha float64
	// Lf is the gradient Lipschitz constant L_f (default 1).
	Lf float64
	// MuG is the strong-convexity constant μ_g of g(x) (default 1).
	MuG float64
	// Theta is the free parameter θ > 1 (default 2).
	Theta float64
	// Eta is the free parameter η ∈ (0, 2μ_g) (default μ_g).
	Eta float64
}

func (p BoundParams) withDefaults() BoundParams {
	if p.Alpha <= 0 {
		p.Alpha = 0.01
	}
	if p.Lf <= 0 {
		p.Lf = 1
	}
	if p.MuG <= 0 {
		p.MuG = 1
	}
	if p.Theta <= 1 {
		p.Theta = 2
	}
	if p.Eta <= 0 || p.Eta >= 2*p.MuG {
		p.Eta = p.MuG
	}
	return p
}

// DeltaBound evaluates the paper's simplified convergence-rate bound,
// eq. (17): the EXTRA iterates contract at rate O((1+δ)^−k) where
//
//	δ ≤ min( α(2μ_g−η)·λ̄min(I−W) / (2θα²L_f² + λ̄min(I−W)),
//	         (θ−1)(η+ηλ_min(W)−2αL_f²)·λ̄min(I−W) / (4θη(1+αL_f)²) )
//
// with λ̄min(I−W) = 1 − λ̄max(W). A larger δ means faster convergence, so
// the weight matrix with the larger bound is preferred.
func DeltaBound(sp *linalg.Spectrum, p BoundParams) float64 {
	p = p.withDefaults()
	lamBarMinIW := 1 - sp.LambdaBarMax // λ̄min(I−W)
	term1 := p.Alpha * (2*p.MuG - p.Eta) * lamBarMinIW /
		(2*p.Theta*p.Alpha*p.Alpha*p.Lf*p.Lf + lamBarMinIW)
	term2 := (p.Theta - 1) * (p.Eta + p.Eta*sp.LambdaMin - 2*p.Alpha*p.Lf*p.Lf) * lamBarMinIW /
		(4 * p.Theta * p.Eta * (1 + p.Alpha*p.Lf) * (1 + p.Alpha*p.Lf))
	return math.Min(term1, term2)
}

// OptimizeBest implements the paper's Section IV-B policy: solve problem
// (21)/(23) (minimize λ̄max) and problem (22) (maximize λmin) separately,
// evaluate the candidates with the convergence bound eq. (17), and keep
// the matrix with the larger bound.
//
// Two pragmatic additions beyond the paper's text: the SLEM-minimizing
// matrix is considered as a third candidate (it balances both ends of the
// spectrum, which eq. 17 rewards but neither subproblem optimizes
// jointly), and the Metropolis starting matrix is kept as a floor so the
// "optimized" matrix can never be worse than the unoptimized baseline
// under the bound. Problem (22) alone is degenerate — W = I is feasible and
// maximal but does not mix at all. Its bound is exactly 0, which still
// beats a Metropolis matrix whose λmin < 2αL_f²/η − 1 makes the bound
// negative, so a candidate without a spectral gap (λ̄max ≥ 1 − 1e-9) is
// never selected.
//
// The candidates are solved concurrently, each in its own goroutine with
// its own state, and then compared in the fixed order below with a strict
// "larger bound wins", so the choice does not depend on scheduling. The
// SLEM problem is solved only when the λ̄max trajectory saw λ̄max < −λmin
// at some step: otherwise its every step is the λ̄max run's, its bound
// ties that candidate's, and it can never be selected.
func OptimizeBest(g *graph.Graph, p BoundParams, opts Options) (*Result, error) {
	metro := Metropolis(g, 0)
	metroSpec, err := linalg.AnalyzeSpectrum(metro)
	if err != nil {
		return nil, fmt.Errorf("weights: analyzing Metropolis baseline: %w", err)
	}
	best := &Result{W: metro, Spectrum: metroSpec, Objective: MetropolisBaseline, Value: metroSpec.LambdaBarMax}
	bestBound := DeltaBound(metroSpec, p)

	objectives := [...]Objective{MinimizeLambdaBarMax, MaximizeLambdaMin, MinimizeSLEM, JointSpectral}
	var (
		results [len(objectives)]*Result
		errs    [len(objectives)]error
		wg      sync.WaitGroup
	)
	solve := func(i int) { results[i], errs[i] = Optimize(g, objectives[i], opts) }
	wg.Add(3)
	go func() {
		defer wg.Done()
		var slemIsBarMax bool
		results[0], slemIsBarMax, errs[0] = optimize(g, objectives[0], opts)
		if errs[0] == nil && !slemIsBarMax {
			solve(2)
		}
	}()
	go func() { defer wg.Done(); solve(1) }()
	go func() { defer wg.Done(); solve(3) }()
	wg.Wait()

	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("weights: solving %v: %w", objectives[i], errs[i])
		}
		if r == nil || r.Spectrum.LambdaBarMax >= 1-1e-9 {
			continue // nil: the SLEM solve was skipped
		}
		if b := DeltaBound(r.Spectrum, p); b > bestBound {
			best, bestBound = r, b
		}
	}
	return best, nil
}
