package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/transport"
	"github.com/snapml/snap/internal/weights"
)

// BenchmarkExtraRoundDelayed measures the pipelined round loop where it
// matters: on links with real latency. Every link of a 5-node complete
// TCP graph gets a FaultDelay on every round. The delay holds each frame
// back on its own link, so the comms window costs ~one link delay, and
// node 0's local gradient is sized to take about as long. The pipelined
// loop pays ~max(compute, delay) per round. The sequential loop pays
// (2×delay + compute)/2: its frames are in flight while it computes, so
// it hides half of the latency without any pipelining. With compute ≈
// delay the gain tops out at 1.5x (see DESIGN.md §14).
//
// Only node 0 carries a real partition; its four neighbors hold a few
// samples each. That asymmetry is deliberate: the benchmark isolates one
// node's compute-vs-comms overlap. With every node crunching an equal
// gradient the run is CPU-bound on small CI machines (the OS already
// overlaps node A's link sleeps with node B's compute), and the loop
// structure under test stops being the thing measured.
func BenchmarkExtraRoundDelayed(b *testing.B) {
	for _, mode := range []struct {
		name       string
		sequential bool
	}{
		{"sequential", true},
		{"pipelined", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			benchDelayedRounds(b, mode.sequential)
		})
	}
}

func benchDelayedRounds(b *testing.B, sequential bool) {
	const (
		n          = 5
		features   = 256
		hotSamples = 20000 // node 0's gradient ≈ the comms window below
		linkDelay  = 8 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(11))
	parts := make([]*dataset.Dataset, n)
	parts[0] = dataset.SyntheticCredit(dataset.CreditConfig{Samples: hotSamples, Features: features}, rng)
	for i := 1; i < n; i++ {
		parts[i] = dataset.SyntheticCredit(dataset.CreditConfig{Samples: 16, Features: features}, rng)
	}
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(features)
	init := m.InitParams(3)

	nodes := make([]*PeerNode, n)
	for i := 0; i < n; i++ {
		// One delay rule per (neighbor, round): every frame of every
		// benchmarked round crosses a slow link.
		faults := transport.NewFaultSet()
		for _, j := range g.Neighbors(i) {
			for r := 0; r < b.N; r++ {
				faults.Add(transport.FaultRule{
					Peer: j, Round: r,
					Action: transport.FaultDelay, Delay: linkDelay,
				})
			}
		}
		pn, err := NewPeerNode(PeerNodeConfig{
			Engine: EngineConfig{
				ID: i, Model: m, Data: parts[i], Alpha: 0.1,
				WRow: w.Row(i), Neighbors: g.Neighbors(i),
				Policy: SendSelected, Init: init,
			},
			ListenAddr:   "127.0.0.1:0",
			RoundTimeout: 30 * time.Second,
			Faults:       faults,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = pn
		defer pn.Close()
	}
	addrs := make(map[int]string, n)
	for i, pn := range nodes {
		addrs[i] = pn.Addr()
	}
	var wg sync.WaitGroup
	connErrs := make([]error, n)
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for _, j := range g.Neighbors(i) {
				neighbors[j] = addrs[j]
			}
			connErrs[i] = pn.Connect(neighbors)
		}(i, pn)
	}
	wg.Wait()
	for i, err := range connErrs {
		if err != nil {
			b.Fatalf("connect node %d: %v", i, err)
		}
	}

	// The hot partition keeps ~150MB live while the measured rounds are
	// alloc-free, so any GC cycle that lands mid-run is pure setup debt
	// being collected on the 1-core critical path — worth whole
	// milliseconds per round of noise. Collect the setup garbage now and
	// push the next cycle far past anything the rounds can allocate.
	old := debug.SetGCPercent(800)
	defer debug.SetGCPercent(old)
	runtime.GC()
	// Two runtime Ps even on a single-core box: with GOMAXPROCS=1 the
	// gradient goroutine holds the only P for multi-millisecond stretches
	// and every broadcast sleep pays its wake latency on the critical
	// path — measuring scheduler starvation, not the round structure.
	// A second P lets the OS interleave comms wakes with compute the way
	// a real edge device's kernel does.
	oldProcs := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(oldProcs)

	b.ResetTimer()
	runErrs := make([]error, n)
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			if sequential {
				runErrs[i] = runSequential(pn, b.N)
			} else {
				_, runErrs[i] = pn.Run(b.N)
			}
		}(i, pn)
	}
	wg.Wait()
	b.StopTimer()
	for i, err := range runErrs {
		if err != nil {
			b.Fatalf("node %d: %v", i, err)
		}
	}
}

// BenchmarkClusterRoundSVM20 measures one lockstep round of the
// simulated 20-node SVM cluster at the paper's large-scale shape: a
// 30 000 × 24 credit corpus partitioned across a random(3) topology with
// the optimized weight matrix and SNAP's selective send. One op is one
// round (both phases on the worker pool, then the loss and consensus
// evaluation).
func BenchmarkClusterRoundSVM20(b *testing.B) {
	const n = 20
	rng := rand.New(rand.NewSource(1))
	corpus := dataset.SyntheticCredit(dataset.CreditConfig{Samples: 30000, Features: 24}, rng)
	parts, err := corpus.Partition(n, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Topology: graph.RandomConnected(n, 3, rng), Model: model.NewLinearSVM(24),
		Partitions: parts, Alpha: 0.1, Policy: SendSelected, OptimizeWeights: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.startRunners()
	defer c.stopRunners()
	b.ReportAllocs()
	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		if _, err := c.runRound(round); err != nil {
			b.Fatal(err)
		}
	}
}
