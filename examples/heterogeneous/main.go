// Heterogeneous data: why SNAP builds on EXTRA instead of plain
// decentralized gradient descent.
//
// Real edge servers see non-IID data — a base station in a business
// district and one in a residential area observe very different samples.
// This example shards a credit-default dataset by label skew (Dirichlet
// concentration 0.2: most servers see mostly one class), then trains with
// classic decentralized gradient descent (DGD) and with SNAP.
//
// Both learn, but DGD's servers never agree: with a constant step size
// each server's local gradient keeps pulling it toward its own shard's
// optimum, so the cross-server disagreement stalls at a plateau. SNAP's
// EXTRA iteration carries a correction term that cancels exactly that
// bias — its disagreement keeps decaying toward zero while DGD's is flat.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/snapml/snap"
)

func main() {
	const (
		servers = 8
		rounds  = 600
	)

	rng := rand.New(rand.NewSource(30))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 8000}, rng)
	train, test := data.Split(0.85, rng)

	// Label-skewed shards: Dirichlet(0.2) gives most servers a heavy
	// majority of a single class.
	parts, err := train.PartitionNonIID(servers, 0.2, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range parts {
		pos := 0
		for _, s := range p.Samples {
			pos += s.Label
		}
		fmt.Printf("server %d: %4d samples, %5.1f%% positive\n",
			i, p.Len(), 100*float64(pos)/float64(p.Len()))
	}

	topo := snap.RandomTopology(servers, 3, 31)
	model := snap.NewLinearSVM(data.NumFeature)
	noStop := snap.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30}

	cfg := snap.Config{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: 0.05, MaxIterations: rounds,
		Convergence: noStop, EvalEvery: 50, Seed: 32,
	}
	snapRes, err := snap.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Classic DGD: EXTRA's first step every round, full parameter frames.
	cfg.DGD, cfg.Policy = true, snap.SNO
	dgd, err := snap.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncross-server disagreement over time:\n")
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "scheme", "round 150", "round 300", "round 450", "round 600")
	row := func(name string, res *snap.Result) {
		fmt.Printf("%-8s", name)
		for _, r := range []int{149, 299, 449, 599} {
			fmt.Printf(" %12.2e", res.Trace.Stats[r].Consensus)
		}
		fmt.Println()
	}
	row("dgd", dgd)
	row("snap", snapRes)
	fmt.Printf("\naccuracy: dgd %.4f, snap %.4f\n", dgd.FinalAccuracy, snapRes.FinalAccuracy)
	fmt.Println("DGD's disagreement is flat (the heterogeneity bias); SNAP's keeps shrinking.")
}
