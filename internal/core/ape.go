// Package core implements the paper's primary contribution: the SNAP
// training loop. It contains the per-node EXTRA consensus engine
// (paper eq. 6/8), the Accumulated-Parameter-Error threshold controller
// (paper eq. 27 and Algorithm 1) that decides which parameters are worth
// transmitting, and the round-synchronized cluster driver that runs N
// engines over a transport.
package core

import (
	"fmt"
	"math"
)

// APEConfig parameterizes Algorithm 1 (communication cost reduction).
// The defaults follow the paper's evaluation section: the threshold starts
// at 10% of the mean absolute parameter value, must remain in effect for
// at least 10 iterations, and decays by 10% per stage until it falls
// below Epsilon.
type APEConfig struct {
	// Alpha is the EXTRA step size α.
	Alpha float64
	// G bounds the second-order gradient, |∇²f| ≤ G (paper's Algorithm 1
	// input). When zero it defaults to 0.02/Alpha, following the paper's
	// coupling "choose α, e.g. α = 1/(100G)" so that (1+αG) stays near 1
	// and the per-stage send threshold T/(I·(1+αG)^I) remains meaningful.
	G float64
	// InitialFraction sets T_0 = InitialFraction × mean|x⁰|. Default 0.1.
	InitialFraction float64
	// StageIterations is I_k, the minimum iterations per stage. Default 10.
	StageIterations int
	// Decay multiplies T_k at each stage transition. Default 0.9.
	Decay float64
	// Epsilon ends the schedule: once T_k < Epsilon the thresholds stop
	// decaying and the final small threshold is kept forever. The paper
	// keeps this residual threshold deliberately, "to avoid the
	// communication incurred by the iteration collision (parameters still
	// have some slight changes when the iteration converges)". Default
	// 1e-4.
	Epsilon float64
	// RestartRecursion resets the EXTRA correction, s := 0, at each stage
	// transition, the literal reading of Algorithm 1's "restart the
	// iteration from the solution derived by the first I_k iterations".
	// Off by default: at EXTRA's fixed point each node's *local* gradient
	// is nonzero (only the sum vanishes), so a recursion reset kicks the
	// iterate by α·∇f_i every stage and the per-round parameter changes
	// never decay — defeating the late-stage communication savings the
	// paper reports (Fig. 4b). With the default interpretation the
	// iteration simply continues from the current solution with the new,
	// smaller threshold. The ablation bench compares both readings.
	RestartRecursion bool
}

func (c APEConfig) withDefaults() APEConfig {
	if c.G <= 0 && c.Alpha > 0 {
		c.G = 0.02 / c.Alpha
	}
	if c.InitialFraction <= 0 {
		c.InitialFraction = 0.1
	}
	if c.StageIterations <= 0 {
		c.StageIterations = 10
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.9
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-4
	}
	return c
}

// APEController runs Algorithm 1 for one edge server, in a distributed
// manner (each node owns its controller; no coordination is needed).
//
// Stage k keeps an APE threshold T_k and allows per-parameter accumulated
// changes up to maxDelta = T_k / (I_k·(1+αG)^{I_k}) to be withheld. The
// controller tracks the worst-case APE estimate
// S_t = Σ_{l=1..t} (1+αG)^l·maxDelta via the recurrence
// S_t = (1+αG)(S_{t-1} + maxDelta); when S exceeds T_k the stage ends:
// T_{k+1} = Decay·T_k, the estimate resets, and (per the paper) the EXTRA
// recursion restarts from the current iterate.
type APEController struct {
	cfg       APEConfig
	threshold float64 // T_k
	maxDelta  float64
	apeEst    float64
	stage     int
	exhausted bool // T_k fell below Epsilon: final threshold frozen
}

// NewAPEController creates the controller given the node's initial mean
// absolute parameter value (used for T_0). cfg.Alpha must be positive.
func NewAPEController(cfg APEConfig, meanAbsParam float64) (*APEController, error) {
	cfg = cfg.withDefaults()
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("core: APE controller requires positive Alpha, got %g", cfg.Alpha)
	}
	c := &APEController{cfg: cfg}
	c.threshold = cfg.InitialFraction * math.Abs(meanAbsParam)
	if c.threshold < cfg.Epsilon {
		c.exhausted = true
	}
	c.recomputeMaxDelta()
	return c, nil
}

func (c *APEController) recomputeMaxDelta() {
	growth := math.Pow(1+c.cfg.Alpha*c.cfg.G, float64(c.cfg.StageIterations))
	c.maxDelta = c.threshold / (float64(c.cfg.StageIterations) * growth)
}

// SendThreshold returns the per-parameter change threshold below which a
// parameter may be withheld this iteration. Once the schedule is
// exhausted this is frozen at the final (sub-ε) stage's value.
func (c *APEController) SendThreshold() float64 { return c.maxDelta }

// Stage returns the current stage index k.
func (c *APEController) Stage() int { return c.stage }

// Threshold returns the current APE threshold T_k (frozen at its final
// value once the schedule is exhausted).
func (c *APEController) Threshold() float64 { return c.threshold }

// Exhausted reports whether the schedule has ended (T_k < ε, thresholds
// frozen).
func (c *APEController) Exhausted() bool { return c.exhausted }

// AfterIteration advances the worst-case APE estimate by one iteration and
// reports whether the stage ended (in which case the caller should restart
// its EXTRA recursion from the current iterate, per Algorithm 1).
func (c *APEController) AfterIteration() (stageEnded bool) {
	if c.exhausted {
		return false
	}
	c.apeEst = (1 + c.cfg.Alpha*c.cfg.G) * (c.apeEst + c.maxDelta)
	if c.apeEst <= c.threshold {
		return false
	}
	c.stage++
	c.threshold *= c.cfg.Decay
	c.apeEst = 0
	if c.threshold < c.cfg.Epsilon {
		c.exhausted = true
	}
	c.recomputeMaxDelta()
	return true
}
