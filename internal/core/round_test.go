package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/transport"
	"github.com/snapml/snap/internal/weights"
)

// TestClusterAndPeerNodesBitIdentical runs one problem through both hosts
// of the round body — core.Cluster over the lockstep simulator and five
// PeerNodes over loopback TCP — and requires every node's final iterate
// to agree bit for bit: the hosts differ only in where the gradient runs
// and in what carries the frames, and neither may reach the numbers. It
// does so for SNAP's EXTRA and for DGD, EXTRA's first step repeated.
func TestClusterAndPeerNodesBitIdentical(t *testing.T) {
	const (
		n      = 5
		rounds = 40
		alpha  = 0.1
		seed   = 31
	)
	_, parts := smallPartitions(t, n, 60, 21)
	g := graph.RandomConnected(n, 3, rand.New(rand.NewSource(5)))
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)

	for _, tc := range []struct {
		name   string
		policy SendPolicy
		dgd    bool
	}{
		{"snap", SendSelected, false},
		{"dgd", SendAll, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				Topology: g, Model: m, Partitions: parts, Alpha: alpha,
				Policy: tc.policy, DGD: tc.dgd, Weights: w, Seed: seed, MaxIterations: rounds,
				Convergence: metrics.ConvergenceDetector{Patience: rounds + 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != rounds {
				t.Fatalf("cluster ran %d rounds, want %d", res.Iterations, rounds)
			}

			nodes := make([]*PeerNode, n)
			for i := range nodes {
				pn, err := NewPeerNode(PeerNodeConfig{
					Engine: EngineConfig{
						ID: i, Model: m, Data: parts[i], Alpha: alpha,
						WRow: w.Row(i), Neighbors: g.Neighbors(i),
						Policy: tc.policy, DGD: tc.dgd, Init: m.InitParams(seed),
					},
					ListenAddr:   "127.0.0.1:0",
					RoundTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = pn
				defer pn.Close()
			}
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i, pn := range nodes {
				wg.Add(1)
				go func(i int, pn *PeerNode) {
					defer wg.Done()
					neighbors := make(map[int]string)
					for _, j := range g.Neighbors(i) {
						neighbors[j] = nodes[j].Addr()
					}
					if errs[i] = pn.Connect(neighbors); errs[i] == nil {
						_, errs[i] = pn.Run(rounds)
					}
				}(i, pn)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}

			for i, e := range c.Engines() {
				sim, tcp := e.Params(), nodes[i].Engine().Params()
				for j := range sim {
					if math.Float64bits(sim[j]) != math.Float64bits(tcp[j]) {
						t.Fatalf("node %d param %d: Cluster %v, PeerNode %v", i, j, sim[j], tcp[j])
					}
				}
			}
		})
	}
}

// TestCorruptFramePolicy drives a truncated frame through the round body
// over each link. Either way it is counted and reported as a fault event;
// over a socket it is dropped and the round completes on the sender's
// last view, over the simulator — where only a codec bug can produce one
// — the round fails with the decode error.
func TestCorruptFramePolicy(t *testing.T) {
	good, _, err := codec.EncodeTo(nil, &codec.Update{Sender: 1, NumParams: 9, Indices: []int{0}, Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	truncated := good[:len(good)-3]
	g := graph.Complete(2)

	links := []struct {
		name     string
		wantDrop bool
		link     func(t *testing.T) roundLink // delivers truncated from node 1 to node 0 in round 0
	}{
		{"sim", false, func(t *testing.T) roundLink {
			net := transport.NewSim(g, nil)
			net.BeginRound(0)
			if err := net.Send(1, 0, truncated); err != nil {
				t.Fatal(err)
			}
			return simLink{net: net, id: 0, nbrs: []int{1}}
		}},
		{"tcp", true, func(t *testing.T) roundLink {
			peers := make([]*transport.Peer, 2)
			for i := range peers {
				p, err := transport.NewPeer(i, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				peers[i] = p
			}
			var wg sync.WaitGroup
			for i, p := range peers {
				wg.Add(1)
				go func(i int, p *transport.Peer) {
					defer wg.Done()
					if err := p.Connect(map[int]string{1 - i: peers[1-i].Addr()}, 5*time.Second); err != nil {
						t.Error(err)
					}
				}(i, p)
			}
			wg.Wait()
			if err := peers[1].Send(0, 0, truncated); err != nil {
				t.Fatal(err)
			}
			return tcpLink{peer: peers[0], timeout: 5 * time.Second}
		}},
	}
	for _, tc := range links {
		t.Run(tc.name, func(t *testing.T) {
			_, parts := smallPartitions(t, 2, 30, 1)
			m := model.NewLinearSVM(8)
			var events bytes.Buffer
			o := &obs.Observer{Reg: obs.NewRegistry(), Log: obs.NewEventLog(&events)}
			eng, err := NewEngine(EngineConfig{
				ID: 0, Model: m, Data: parts[0], Alpha: 0.1,
				WRow: weights.Metropolis(g, 0).Row(0), Neighbors: []int{1},
				Policy: SendChanged, Init: m.InitParams(7), Obs: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			met := newRoundMetrics(o)
			nr := newNodeRound(eng, tc.link(t), &met, t.Logf)

			eng.ComputeGradient(0)
			iter, err := nr.receive(0)
			if tc.wantDrop {
				if err != nil || iter == nil {
					t.Fatalf("receive = %v, %v; want the round to complete without the frame", iter, err)
				}
			} else if err == nil {
				t.Fatal("receive succeeded; want the decode error")
			}
			if got := met.corrupt.Value(); got != 1 {
				t.Errorf("%s = %d, want 1", obs.MCorruptFrames, got)
			}
			if log := events.String(); !strings.Contains(log, obs.EvFault) || !strings.Contains(log, "corrupt_frame") {
				t.Errorf("no corrupt_frame fault event in log:\n%s", log)
			}
		})
	}
}

// TestClusterRoundAllocFree pins a warmed simulator round at zero
// allocations with a registry-only Observer attached — metrics on, no
// event log — the configuration in which the round used to build a field
// map for an event nobody would read. The second case adds every
// per-round knob: float32 frames on the wire, a mini-batch gradient,
// periodic refresh and restart.
func TestClusterRoundAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*ClusterConfig)
	}{
		{"defaults", func(*ClusterConfig) {}},
		{"f32-batch-refresh-restart", func(c *ClusterConfig) {
			c.Float32Wire, c.BatchSize, c.RefreshEvery, c.RestartEvery = true, 10, 3, 4
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, parts := smallPartitions(t, 5, 30, 1)
			cfg := ClusterConfig{
				Topology: graph.RandomConnected(5, 3, rand.New(rand.NewSource(5))),
				Model:    model.NewLinearSVM(8), Partitions: parts, Alpha: 0.1,
				Policy: SendSelected, Seed: 7, Obs: &obs.Observer{Reg: obs.NewRegistry()},
			}
			tc.tune(&cfg)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.startRunners()
			defer c.stopRunners()
			round := 0
			iterate := func() {
				if _, err := c.runRound(round); err != nil {
					t.Fatal(err)
				}
				round++
			}
			for i := 0; i < 20; i++ {
				iterate() // warm the encode buffers, decode targets and inbox maps
			}
			if avg := testing.AllocsPerRun(100, iterate); avg != 0 {
				t.Errorf("steady-state cluster round allocated %v times per run, want 0", avg)
			}
		})
	}
}
