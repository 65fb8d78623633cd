package weights

import (
	"fmt"
	"math"
	"sync"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
)

// BoundParams sets the step size at which the paper's simplified
// linear-rate bound, eq. (17), is evaluated. The zero value selects the
// default below.
type BoundParams struct {
	// Alpha is the EXTRA step size α (default 0.01).
	Alpha float64
}

func (p BoundParams) withDefaults() BoundParams {
	if p.Alpha <= 0 {
		p.Alpha = 0.01
	}
	return p
}

// The other constants of eq. (17). They are defaults, not the constants
// of the problem being trained: no workload's L_f or μ_g is measured, and
// the bound is evaluated at these values for every workload.
const (
	boundLf    = 1.0      // gradient Lipschitz constant L_f
	boundMuG   = 1.0      // strong-convexity constant μ_g of g(x)
	boundTheta = 2.0      // free parameter θ > 1
	boundEta   = boundMuG // free parameter η ∈ (0, 2μ_g)
)

// DeltaBound evaluates the paper's simplified convergence-rate bound,
// eq. (17): the EXTRA iterates contract at rate O((1+δ)^−k) where
//
//	δ ≤ min( α(2μ_g−η)·λ̄min(I−W) / (2θα²L_f² + λ̄min(I−W)),
//	         (θ−1)(η+ηλ_min(W)−2αL_f²)·λ̄min(I−W) / (4θη(1+αL_f)²) )
//
// with λ̄min(I−W) = 1 − λ̄max(W). Only α comes from p; L_f, μ_g, θ and η
// are the defaults above (L_f = μ_g = 1, θ = 2, η = μ_g), not the
// workload's own constants. A larger δ means faster convergence, so the
// weight matrix with the larger bound is preferred.
func DeltaBound(sp *linalg.Spectrum, p BoundParams) float64 {
	p = p.withDefaults()
	lamBarMinIW := 1 - sp.LambdaBarMax // λ̄min(I−W)
	term1 := p.Alpha * (2*boundMuG - boundEta) * lamBarMinIW /
		(2*boundTheta*p.Alpha*p.Alpha*boundLf*boundLf + lamBarMinIW)
	term2 := (boundTheta - 1) * (boundEta + boundEta*sp.LambdaMin - 2*p.Alpha*boundLf*boundLf) * lamBarMinIW /
		(4 * boundTheta * boundEta * (1 + p.Alpha*boundLf) * (1 + p.Alpha*boundLf))
	return math.Min(term1, term2)
}

// OptimizeBest implements the paper's Section IV-B policy: solve the
// candidate problems separately, evaluate each with the convergence bound
// eq. (17), and keep the matrix with the larger bound.
//
// The paper's candidates are problem (21)/(23) (minimize λ̄max) and
// problem (22) (maximize λmin). Problem (22) is not solved: λmin ≤ 1 with
// equality only at W = I, so its optimum never mixes and is never
// selected. The λmin end of the spectrum is served instead by two
// candidates beyond the paper's text: the SLEM-minimizing matrix and the
// joint problem (20). The Metropolis starting matrix is kept as a floor so
// the "optimized" matrix can never be worse than the unoptimized baseline
// under the bound. A candidate without a spectral gap (λ̄max ≥ 1 − 1e-9)
// is never selected: its bound of 0 would still beat a Metropolis matrix
// whose λmin < 2αL_f²/η − 1 makes the bound negative.
//
// The candidates are solved concurrently, each goroutine with its own
// state, and then compared in the fixed order below with a strict
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

	objectives := [...]Objective{MinimizeLambdaBarMax, MinimizeSLEM, JointSpectral}
	var (
		results [len(objectives)]*Result
		errs    [len(objectives)]error
		wg      sync.WaitGroup
	)
	solve := func(i int) { results[i], errs[i] = Optimize(g, objectives[i], opts) }
	wg.Add(2)
	go func() {
		defer wg.Done()
		var slemIsBarMax bool
		results[0], slemIsBarMax, errs[0] = optimize(g, objectives[0], opts)
		if errs[0] == nil && !slemIsBarMax {
			solve(1)
		}
	}()
	go func() { defer wg.Done(); solve(2) }()
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
