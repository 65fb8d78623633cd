package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// TestPeerNodesMatchSimulatedCluster trains the paper's 3-server testbed
// setup over real TCP sockets and checks that the result matches the
// in-memory simulated cluster bit-for-bit (both are deterministic EXTRA
// with full exchange, so parameters must agree).
func TestPeerNodesMatchSimulatedCluster(t *testing.T) {
	const (
		n      = 3
		rounds = 25
		alpha  = 0.1
	)
	_, parts := smallPartitions(t, n, 60, 21)
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	init := m.InitParams(31)

	engineCfg := func(i int) EngineConfig {
		return EngineConfig{
			ID: i, Model: m, Data: parts[i], Alpha: alpha,
			WRow: w.Row(i), Neighbors: g.Neighbors(i),
			Policy: SendChanged, Init: init,
		}
	}

	// Reference: engines exchanged in-process with full delivery.
	ref := make([]*Engine, n)
	for i := 0; i < n; i++ {
		eng, err := NewEngine(engineCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = eng
	}
	for round := 0; round < rounds; round++ {
		frames := make([][]byte, n)
		for i, e := range ref {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			frame, _, err := encodeForTest(u)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = frame
		}
		for i, e := range ref {
			updates, err := decodeAllForTest(frames, i, g)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Integrate(updates); err != nil {
				t.Fatal(err)
			}
			e.Step(round)
		}
	}

	// TCP nodes.
	nodes := make([]*PeerNode, n)
	for i := 0; i < n; i++ {
		pn, err := NewPeerNode(PeerNodeConfig{
			Engine:       engineCfg(i),
			ListenAddr:   "127.0.0.1:0",
			RoundTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = pn
		defer pn.Close()
	}
	addrs := make(map[int]string, n)
	for i, pn := range nodes {
		addrs[i] = pn.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for _, j := range g.Neighbors(i) {
				neighbors[j] = addrs[j]
			}
			if err := pn.Connect(neighbors); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = pn.Run(rounds)
		}(i, pn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	for i := 0; i < n; i++ {
		got := nodes[i].Engine().Params()
		want := ref[i].Params()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("node %d param %d: TCP run %v, in-process run %v", i, j, got[j], want[j])
				break
			}
		}
	}
	// Bytes were really written to sockets.
	for i, pn := range nodes {
		if pn.BytesSent() == 0 {
			t.Errorf("node %d reported zero bytes sent", i)
		}
	}
}

// encodeForTest and decodeAllForTest route reference-engine frames through
// the same codec the TCP path uses, so both runs see identical bytes.
func encodeForTest(u *codec.Update) ([]byte, codec.Format, error) {
	return codec.EncodeTo(nil, u)
}

func decodeAllForTest(frames [][]byte, self int, g *graph.Graph) ([]*codec.Update, error) {
	var out []*codec.Update
	for _, j := range g.Neighbors(self) {
		u := &codec.Update{}
		if err := codec.DecodeInto(u, frames[j]); err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}
