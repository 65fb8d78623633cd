// Credit-default SVM: compare SNAP against every baseline the paper uses.
//
// Reproduces a single point of the paper's large-scale simulations: a
// 30-server random edge network trains a 24-parameter SVM on
// credit-default data under six schemes, then reports iterations to
// convergence, accuracy, and hop-weighted communication cost side by side.
//
//	go run ./examples/creditsvm
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/snapml/snap"
)

func main() {
	const servers = 30

	topo := snap.RandomTopology(servers, 3, 7)
	rng := rand.New(rand.NewSource(8))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 15000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(servers, rng)
	if err != nil {
		log.Fatal(err)
	}
	model := snap.NewLinearSVM(data.NumFeature)
	detector := snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.01}

	type row struct {
		name string
		run  func() (*snap.Result, error)
	}
	base := snap.BaselineConfig{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: 0.1, MaxIterations: 400, EvalEvery: 100, Seed: 9,
		Convergence: snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3},
	}
	ternCfg := base
	ternCfg.Ternary = true
	ternCfg.BatchSize = 2 // TernGrad runs in its native minibatch regime

	decentralized := func(policy snap.SendPolicy) func() (*snap.Result, error) {
		return func() (*snap.Result, error) {
			return snap.Train(snap.Config{
				Topology: topo, Model: model, Partitions: parts, Test: test,
				Alpha: 0.1, Policy: policy, OptimizeWeights: true,
				MaxIterations: 400, Convergence: detector, EvalEvery: 100, Seed: 9,
			})
		}
	}

	rows := []row{
		{"centralized", func() (*snap.Result, error) { return snap.TrainCentralized(base) }},
		{"snap", decentralized(snap.SNAP)},
		{"snap-0", decentralized(snap.SNAP0)},
		{"sno", decentralized(snap.SNO)},
		{"ps", func() (*snap.Result, error) { return snap.TrainPS(base) }},
		{"terngrad", func() (*snap.Result, error) { return snap.TrainPS(ternCfg) }},
	}

	fmt.Printf("%-12s %10s %10s %16s\n", "scheme", "iters", "accuracy", "cost (hop-bytes)")
	for _, r := range rows {
		res, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Printf("%-12s %10d %10.4f %16.0f\n", r.name, res.Iterations, res.FinalAccuracy, res.TotalCost)
	}
}
