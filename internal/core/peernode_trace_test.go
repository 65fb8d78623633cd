package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/weights"
)

// runSmallPeerCluster trains a tiny TCP cluster and returns the per-node
// traces. Each node optionally gets its own Observer from mkObs.
func runSmallPeerCluster(t *testing.T, n, rounds int, mkObs func(i int) *obs.Observer) []*metrics.Trace {
	t.Helper()
	_, parts := smallPartitions(t, n, 40, 17)
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	init := m.InitParams(5)

	nodes := make([]*PeerNode, n)
	for i := 0; i < n; i++ {
		var o *obs.Observer
		if mkObs != nil {
			o = mkObs(i)
		}
		pn, err := NewPeerNode(PeerNodeConfig{
			Engine: EngineConfig{
				ID: i, Model: m, Data: parts[i], Alpha: 0.1,
				WRow: w.Row(i), Neighbors: g.Neighbors(i),
				Policy: SendChanged, Init: init,
			},
			ListenAddr:   "127.0.0.1:0",
			RoundTimeout: 5 * time.Second,
			Obs:          o,
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
	traces := make([]*metrics.Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
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
			traces[i], errs[i] = pn.Run(rounds)
		}(i, pn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return traces
}

// TestPeerNodeTraceStats pins two trace invariants of PeerNode.Run:
// Accuracy must be NaN (peer nodes never evaluate a held-out set, and a
// zero would read as a real 0% measurement), and RoundCost must carry
// the real per-round socket bytes so testbed traces account cost as the
// simulator's do.
func TestPeerNodeTraceStats(t *testing.T) {
	traces := runSmallPeerCluster(t, 3, 6, nil)
	for i, tr := range traces {
		if tr.Len() == 0 {
			t.Fatalf("node %d: empty trace", i)
		}
		total := 0.0
		for r, s := range tr.Stats {
			if !math.IsNaN(s.Accuracy) {
				t.Errorf("node %d round %d: Accuracy = %v, want NaN (not evaluated)", i, r, s.Accuracy)
			}
			if s.RoundCost < 0 {
				t.Errorf("node %d round %d: negative RoundCost %v", i, r, s.RoundCost)
			}
			total += s.RoundCost
		}
		if total <= 0 {
			t.Errorf("node %d: total RoundCost %v, want > 0 (real bytes were sent)", i, total)
		}
	}
}

// TestPeerNodeObserverMetrics wires an Observer into every node of a real
// TCP cluster and checks the headline series land in the registry:
// per-link byte counters, the gather-wait histogram, and per-round phase
// timings.
func TestPeerNodeObserverMetrics(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	runSmallPeerCluster(t, 3, 6, func(i int) *obs.Observer {
		regs[i] = obs.NewRegistry()
		return &obs.Observer{Reg: regs[i]}
	})
	for i, reg := range regs {
		text := reg.Text()
		for _, want := range []string{
			obs.MLinkBytesSent, obs.MLinkBytesRecv,
			obs.MGatherWait + "_count", obs.MRoundSeconds,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("node %d: exposition missing %q", i, want)
			}
		}
		snap := reg.Snapshot()
		sent, ok := snap[obs.Label(obs.MLinkBytesSent, "peer", "0")]
		if i != 0 {
			if !ok {
				t.Errorf("node %d: no %s series for peer 0", i, obs.MLinkBytesSent)
			} else if v, _ := sent.(int64); v <= 0 {
				t.Errorf("node %d: bytes sent to peer 0 = %v, want > 0", i, sent)
			}
		}
	}
}
