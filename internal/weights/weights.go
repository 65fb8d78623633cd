// Package weights constructs and optimizes the symmetric doubly stochastic
// weight matrix W that drives SNAP's EXTRA consensus iteration.
//
// Two constructions are provided:
//
//   - Metropolis: the predefined initialization of paper eq. (24),
//     w_ij = 1/(max(deg i, deg j)+ε) on edges — the baseline the paper
//     compares its optimization against, and the interior starting point
//     for the optimizer.
//
//   - Optimize: the paper's weight-matrix optimization (Section IV-B).
//     Problem (21)/(23) (minimize λ̄max(W)) is convex over the set of
//     symmetric doubly stochastic matrices with a fixed sparsity pattern.
//     The paper solves it with an interior-point method; we solve it and
//     the other objectives below with projected subgradient on the edge
//     parameterization W = I − Σ_e w_e·L_e (L_e the edge Laplacian), which
//     keeps W symmetric with unit row sums by construction and needs only
//     the box/degree constraints w_e ≥ 0, Σ_{e∋i} w_e ≤ 1. The exact
//     eigen-subgradient ∂λ/∂w_e = −(v_i − v_j)² is available from the
//     Jacobi eigensolver, so the method converges to the same optimum.
package weights

import (
	"fmt"
	"math"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
)

// Metropolis builds the paper's eq. (24) weight matrix for topology g:
//
//	w_ij = 1/(max(deg(i),deg(j))+ε)  if {i,j} is an edge
//	w_ii = 1 − Σ_{j≠i} w_ij
//
// The result is symmetric and doubly stochastic for any ε > 0, and strictly
// diagonally positive, so it is a valid interior starting point for the
// optimizer. ε ≤ 0 is replaced by a small default.
func Metropolis(g *graph.Graph, eps float64) *linalg.Matrix {
	if eps <= 0 {
		eps = 1e-3
	}
	n := g.N()
	w := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for _, j := range g.Neighbors(i) {
			v := 1 / (math.Max(float64(g.Degree(i)), float64(g.Degree(j))) + eps)
			w.Set(i, j, v)
			rowSum += v
		}
		w.Set(i, i, 1-rowSum)
	}
	return w
}

// Objective selects which spectral quantity the optimizer targets.
type Objective int

const (
	// MetropolisBaseline marks a Result whose matrix is the unoptimized
	// eq. (24) matrix (returned by OptimizeBest when no optimized
	// candidate beats it under the rate bound).
	MetropolisBaseline Objective = -1

	// MinimizeLambdaBarMax solves paper problem (21)/(23): minimize the
	// largest eigenvalue of W strictly below 1.
	MinimizeLambdaBarMax Objective = iota
	// MinimizeSLEM minimizes max(λ̄max, −λmin), the second-largest
	// eigenvalue modulus — the fastest-mixing-Markov-chain objective.
	// Offered as an ablation; not one of the paper's two subproblems.
	MinimizeSLEM
	// JointSpectral solves the paper's joint problem (20) directly:
	// minimize λ̄max while not letting λmin fall below its Metropolis
	// starting value (a penalty scalarization). The separately solved
	// problem (21) freely trades λmin down for λ̄max, which the rate
	// bound (17) punishes; the joint form improves λ̄max without that
	// trade and is the candidate that usually wins the bound comparison.
	JointSpectral
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MetropolisBaseline:
		return "metropolis"
	case MinimizeLambdaBarMax:
		return "min-lambda-bar-max"
	case MinimizeSLEM:
		return "min-slem"
	case JointSpectral:
		return "joint-spectral"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Options tunes the projected-subgradient optimizer. The zero value selects
// sensible defaults.
type Options struct {
	// Iterations is the number of subgradient steps (default 300).
	Iterations int
	// Step is the initial step size (default 1.0); steps decay as
	// Step/sqrt(k+1).
	Step float64
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.Step <= 0 {
		o.Step = 1.0
	}
	return o
}

// Result is an optimized weight matrix together with its spectral summary
// and the objective value reached.
type Result struct {
	W         *linalg.Matrix
	Spectrum  *linalg.Spectrum
	Objective Objective
	Value     float64 // the objective value of W (λ̄max, SLEM, or the joint penalty form)
}

// Optimize solves the selected spectral problem over symmetric doubly
// stochastic matrices supported on g's edges, starting from the Metropolis
// matrix. It returns the best iterate found. Each iterate is decomposed
// once: the view that scores it is the view its subgradient step uses.
func Optimize(g *graph.Graph, obj Objective, opts Options) (*Result, error) {
	r, _, err := optimize(g, obj, opts)
	return r, err
}

// optimize is Optimize that also reports whether λ̄max ≥ −λmin held at
// every view on the trajectory. When it held on the MinimizeLambdaBarMax
// trajectory, MinimizeSLEM would have taken the same subgradient steps and
// kept the same best iterate, so its W equals the λ̄max result's.
func optimize(g *graph.Graph, obj Objective, opts Options) (res *Result, slemIsBarMax bool, err error) {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 {
		return nil, false, fmt.Errorf("weights: cannot optimize over an empty graph")
	}
	edges := g.Edges()

	// Start from Metropolis edge weights.
	w := make([]float64, len(edges))
	init := Metropolis(g, 0)
	for k, e := range edges {
		w[k] = init.At(e.U, e.V)
	}
	initSpec, err := linalg.AnalyzeSpectrum(init)
	if err != nil {
		return nil, false, fmt.Errorf("weights: analyzing start point: %w", err)
	}
	// λmin floor for the JointSpectral scalarization.
	floor := initSpec.LambdaMin

	best := append([]float64(nil), w...)
	view, err := spectralViewOf(buildMatrix(n, edges, w))
	if err != nil {
		return nil, false, fmt.Errorf("weights: evaluating start point: %w", err)
	}
	bestVal := view.objectiveValue(obj, floor)
	slemIsBarMax = !view.slemIsMin()

	grad := make([]float64, len(edges))
	for it := 0; it < opts.Iterations; it++ {
		fillSubgradient(grad, edges, view, obj, floor)

		step := opts.Step / math.Sqrt(float64(it+1))
		for k := range w {
			// Every objective minimizes, so step against the subgradient.
			w[k] -= step * grad[k]
		}
		projectFeasible(n, edges, w)

		if view, err = spectralViewOf(buildMatrix(n, edges, w)); err != nil {
			return nil, false, fmt.Errorf("weights: eigendecomposition at iteration %d: %w", it, err)
		}
		if view.slemIsMin() {
			slemIsBarMax = false
		}
		val := view.objectiveValue(obj, floor)
		if val < bestVal {
			bestVal = val
			copy(best, w)
		}
	}

	mat := buildMatrix(n, edges, best)
	sp, err := linalg.AnalyzeSpectrum(mat)
	if err != nil {
		return nil, false, fmt.Errorf("weights: analyzing result: %w", err)
	}
	return &Result{W: mat, Spectrum: sp, Objective: obj, Value: bestVal}, slemIsBarMax, nil
}

// buildMatrix assembles W from edge weights: W_ij = w_e on edges, diagonal
// fills each row to sum 1.
func buildMatrix(n int, edges []graph.Edge, w []float64) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 1
	}
	for k, e := range edges {
		m.Set(e.U, e.V, w[k])
		m.Set(e.V, e.U, w[k])
		diag[e.U] -= w[k]
		diag[e.V] -= w[k]
	}
	for i, d := range diag {
		m.Set(i, i, d)
	}
	return m
}

// jointPenalty weights the λmin-floor violation in the JointSpectral
// scalarization.
const jointPenalty = 10.0

// spectralView is the spectral information one subgradient step needs: the
// two extreme non-unit eigenpairs.
type spectralView struct {
	lambda2   float64 // λ̄max, the second-largest eigenvalue
	v2        linalg.Vector
	lambdaMin float64
	vMin      linalg.Vector
}

// spectralViewOf computes the view with the Jacobi eigensolver. Using the
// second-largest eigen*vector* (rather than matching eigenvalues against 1)
// stays correct when the unit eigenvalue has multiplicity ≥ 2 — the
// disconnected case, where that eigenvector differs across components and
// its subgradient raises the cut-edge weights, reconnecting the matrix.
func spectralViewOf(m *linalg.Matrix) (*spectralView, error) {
	eig, err := linalg.SymEigen(m)
	if err != nil {
		return nil, err
	}
	second := len(eig.Values) - 2
	if second < 0 {
		second = 0
	}
	return &spectralView{
		lambda2:   eig.Values[second],
		v2:        eig.Vector(second),
		lambdaMin: eig.Values[0],
		vMin:      eig.Vector(0),
	}, nil
}

// slemIsMin reports whether −λmin, not λ̄max, is the view's SLEM: the one
// case where MinimizeSLEM steps along vMin instead of v2.
func (view *spectralView) slemIsMin() bool {
	return view.lambda2 < -view.lambdaMin
}

// objectiveValue evaluates obj on the view.
func (view *spectralView) objectiveValue(obj Objective, floor float64) float64 {
	switch obj {
	case MinimizeLambdaBarMax:
		return view.lambda2
	case MinimizeSLEM:
		return math.Max(view.lambda2, -view.lambdaMin)
	case JointSpectral:
		return view.lambda2 + jointPenalty*math.Max(0, floor-view.lambdaMin)
	default:
		panic(fmt.Sprintf("weights: unknown objective %v", obj))
	}
}

// fillSubgradient writes a subgradient of obj into grad. For an eigenvalue λ of W with unit eigenvector v,
// ∂λ/∂w_e = −(v_i − v_j)², since ∂W/∂w_e = −L_e. floor is the λmin floor
// used by JointSpectral.
func fillSubgradient(grad []float64, edges []graph.Edge, view *spectralView, obj Objective, floor float64) {
	v := view.v2
	sign := 1.0 // −1 when the objective is −λmin
	switch obj {
	case MinimizeLambdaBarMax:
		// v already v2.
	case MinimizeSLEM:
		if view.slemIsMin() {
			v = view.vMin
			sign = -1
		}
	case JointSpectral:
		// ∂(λ̄max + P·max(0, floor−λmin))/∂w_e.
		var vmin linalg.Vector
		if view.lambdaMin < floor {
			vmin = view.vMin
		}
		for k, e := range edges {
			d := v[e.U] - v[e.V]
			grad[k] = -(d * d)
			if vmin != nil {
				dm := vmin[e.U] - vmin[e.V]
				// −λmin has subgradient +(dm)², scaled by the penalty.
				grad[k] += jointPenalty * dm * dm
			}
		}
		return
	}
	for k, e := range edges {
		d := v[e.U] - v[e.V]
		grad[k] = sign * -(d * d)
	}
}

// projectFeasible maps edge weights onto the feasible set
// {w_e ≥ 0, Σ_{e∋i} w_e ≤ 1 ∀i}: clamp negatives, then scale each edge by
// the harsher of its endpoints' overflow factors. A single clamp+scale pass
// is feasible because scaling only ever decreases node sums.
func projectFeasible(n int, edges []graph.Edge, w []float64) {
	for k := range w {
		if w[k] < 0 {
			w[k] = 0
		}
	}
	sums := make([]float64, n)
	for k, e := range edges {
		sums[e.U] += w[k]
		sums[e.V] += w[k]
	}
	for k, e := range edges {
		f := 1.0
		if sums[e.U] > 1 {
			f = math.Min(f, 1/sums[e.U])
		}
		if sums[e.V] > 1 {
			f = math.Min(f, 1/sums[e.V])
		}
		w[k] *= f
	}
}
