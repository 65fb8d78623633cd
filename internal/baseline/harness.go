package baseline

import (
	"fmt"
	"math"

	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/transport"
)

// problem is what every scheme's config has in common. A scheme supplies
// its iterate(s) and what one round does to them; validation, defaults,
// per-round evaluation, the stopping rule and the result are run's.
type problem struct {
	scheme        string       // Result.Scheme
	topology      *graph.Graph // unset for a scheme without a network
	model         model.Model
	partitions    []*dataset.Dataset
	test          *dataset.Dataset
	alpha         float64
	maxIterations int
	evalEvery     int
	convergence   metrics.ConvergenceDetector

	net *transport.Sim // built by check for a networked scheme; its ledger is the run's cost
}

// check validates the problem and fills in defaults. A networked scheme
// needs a connected topology with one partition per node.
func (p *problem) check(networked bool) error {
	switch {
	case !networked:
		if len(p.partitions) == 0 {
			return fmt.Errorf("baseline: %s requires data", p.scheme)
		}
	case p.topology == nil || p.topology.N() == 0:
		return fmt.Errorf("baseline: %s requires a topology", p.scheme)
	case !p.topology.IsConnected():
		return fmt.Errorf("baseline: %s topology must be connected", p.scheme)
	case len(p.partitions) != p.topology.N():
		return fmt.Errorf("baseline: %d partitions for %d nodes", len(p.partitions), p.topology.N())
	}
	if p.model == nil {
		return fmt.Errorf("baseline: %s requires a model", p.scheme)
	}
	if p.alpha <= 0 {
		return fmt.Errorf("baseline: %s requires positive Alpha", p.scheme)
	}
	if p.maxIterations <= 0 {
		p.maxIterations = 500
	}
	if p.evalEvery <= 0 {
		p.evalEvery = 1
	}
	if networked {
		p.net = transport.NewSim(p.topology, nil)
	}
	return nil
}

// run executes step once per round until the stopping rule fires or the
// iteration cap is reached. x holds the iterates step advances in place:
// one vector per node, or a single vector every node shares.
func (p *problem) run(x []linalg.Vector, step func(round int) error) (*core.Result, error) {
	res := &core.Result{Scheme: p.scheme, FinalAccuracy: math.NaN()}
	for round := 0; round < p.maxIterations; round++ {
		if p.net != nil {
			p.net.BeginRound(round)
		}
		if err := step(round); err != nil {
			return nil, err
		}
		stat := metrics.IterationStat{Round: round, Loss: p.aggregateLoss(x), Accuracy: math.NaN()}
		avg := average(x)
		if len(x) > 1 {
			for i := range x {
				if d := x[i].Sub(avg).NormInf(); d > stat.Consensus {
					stat.Consensus = d
				}
			}
		}
		if p.test != nil && (round%p.evalEvery == 0 || round == p.maxIterations-1) {
			stat.Accuracy = model.Accuracy(p.model, avg, p.test)
		}
		if p.net != nil {
			stat.RoundCost = p.net.Ledger().RoundCost(round)
		}
		res.Trace.Append(stat)
		res.Iterations = round + 1
		if p.convergence.Observe(stat.Loss, stat.Consensus) {
			res.Converged = true
			break
		}
	}
	res.FinalLoss = p.aggregateLoss(x)
	if p.test != nil {
		res.FinalAccuracy = model.Accuracy(p.model, average(x), p.test)
	}
	if p.net != nil {
		res.TotalCost = p.net.Ledger().Total()
		res.PerRoundCost = p.net.Ledger().PerRound()
	}
	return res, nil
}

// aggregateLoss returns Σ_i f_i(x_i), the paper's objective (1).
func (p *problem) aggregateLoss(x []linalg.Vector) float64 {
	var total float64
	for i, part := range p.partitions {
		total += p.model.Loss(x[i%len(x)], part.Samples) // x[i], or the one shared iterate
	}
	return total
}

// average returns the across-node mean iterate, the model accuracy is
// evaluated on. A shared iterate is its own mean, exactly.
func average(x []linalg.Vector) linalg.Vector {
	if len(x) == 1 {
		return x[0]
	}
	avg := linalg.NewVector(len(x[0]))
	for i := range x {
		avg.AddInPlace(x[i])
	}
	return avg.Scale(1 / float64(len(x)))
}

// cloneAll returns n independent copies of init.
func cloneAll(init linalg.Vector, n int) []linalg.Vector {
	x := make([]linalg.Vector, n)
	for i := range x {
		x[i] = init.Clone()
	}
	return x
}
