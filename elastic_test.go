package snap

// End-to-end acceptance test for the elastic control plane: a TCP
// cluster founded through a coordinator trains for some rounds, a new
// node joins mid-run at an epoch boundary, the coordinator re-optimizes
// W for the grown topology, members restart EXTRA and keep training,
// and the final loss matches a static run of the same (N+1)-node
// problem. The test lives in the snap package (not snap_test) so it can
// use the internal spectral machinery to verify the re-optimized W
// against the Metropolis baseline.

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/weights"
)

func TestElasticClusterEndToEnd(t *testing.T) {
	const (
		founders = 4
		total    = 5
		// In-process rounds run in ~0.25ms while the heartbeats that feed
		// the coordinator's apply-boundary estimate tick every second, so
		// the join (started once the 20ms poll below sees round 5) lands
		// around round 60-130 rather than at its nominal boundary. The
		// horizon leaves plenty of joint rounds after even a late apply.
		horizon = 1000
		alpha   = 0.1
		seed    = 7
	)

	rng := rand.New(rand.NewSource(42))
	data := SyntheticCredit(CreditConfig{Samples: 2000}, rng)
	parts, err := data.Partition(total, rng)
	if err != nil {
		t.Fatal(err)
	}

	coordReg := NewMetricsRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		MinMembers:   founders,
		AttachDegree: 2,
		ApplyMargin:  3,
		Bound:        BoundParams{Alpha: alpha},
		Logf:         t.Logf,
		Obs:          NewObserver(coordReg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Founder 0 carries the node-side observability checked at the end.
	nodeReg := NewMetricsRegistry()
	var eventBuf bytes.Buffer
	eventLog := NewEventLog(&eventBuf)

	newNode := func(withObs bool) (*PeerNode, error) {
		var observer *Observer
		if withObs {
			observer = NewObserver(nodeReg, eventLog)
		}
		return NewPeerNode(PeerConfig{
			Model:           NewLinearSVM(data.NumFeature),
			DataForID:       func(id int) *Dataset { return parts[id%total] },
			Alpha:           alpha,
			Policy:          SNAP,
			Seed:            seed,
			CoordinatorAddr: coord.Addr(),
			JoinWait:        30 * time.Second,
			RoundTimeout:    2 * time.Second,
			Logf:            t.Logf,
			Obs:             observer,
		})
	}

	var (
		mu    sync.Mutex
		nodes = make(map[int]*PeerNode, total)
		wg    sync.WaitGroup
		errs  = make([]error, total)
	)
	runNode := func(slot int, withObs bool) {
		defer wg.Done()
		node, err := newNode(withObs)
		if err != nil {
			errs[slot] = err
			return
		}
		mu.Lock()
		nodes[node.Engine().ID()] = node
		mu.Unlock()
		defer node.Close()
		_, errs[slot] = node.Run(horizon)
	}
	for i := 0; i < founders; i++ {
		wg.Add(1)
		go runNode(i, i == 0)
	}

	// Wait until the founding quorum is training, then join the fifth
	// node mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for nodeReg.Gauge(obs.MRound).Value() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("founders never progressed past round 5")
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Add(1)
	go runNode(founders, false)
	wg.Wait()

	for slot, err := range errs {
		if err != nil {
			t.Fatalf("node in slot %d: %v", slot, err)
		}
	}
	if len(nodes) != total {
		t.Fatalf("%d distinct node ids, want %d", len(nodes), total)
	}

	// Every member ends on epoch 2 (founding epoch + the join), and the
	// founders restarted EXTRA when they applied it.
	for id, node := range nodes {
		if node.Epoch() != 2 {
			t.Errorf("node %d finished on epoch %d, want 2", id, node.Epoch())
		}
		if id < founders && node.Engine().Restarts() < 1 {
			t.Errorf("founder %d never restarted EXTRA across the reconfiguration", id)
		}
	}

	// The cluster reached consensus across old and new members.
	ref := nodes[0].Engine().Params()
	for id, node := range nodes {
		if d := node.Engine().Params().Sub(ref).NormInf(); d > 0.1 {
			t.Errorf("node %d disagreement %v after %d rounds", id, d, horizon)
		}
	}

	// The final epoch describes all five members, and its weight matrix
	// is at least as good as Metropolis on the same topology under the
	// paper's convergence bound (eq. 17) — the coordinator's central
	// re-optimization at work.
	ep := coord.CurrentEpoch()
	if ep == nil || ep.ID != 2 || len(ep.Members) != total {
		t.Fatalf("final epoch = %+v, want epoch 2 with %d members", ep, total)
	}
	pos := make(map[int]int, total)
	for i, m := range ep.Members {
		pos[m.ID] = i
	}
	topo := graph.New(total)
	w := linalg.NewMatrix(total, total)
	for i, m := range ep.Members {
		if len(m.Row) != total {
			t.Fatalf("member %d weight row has %d entries, want %d", m.ID, len(m.Row), total)
		}
		for j, v := range m.Row {
			w.Set(i, j, v)
		}
		for _, p := range m.Peers {
			topo.AddEdge(i, pos[p])
		}
	}
	spec, err := linalg.AnalyzeSpectrum(w)
	if err != nil {
		t.Fatalf("analyzing epoch weight matrix: %v", err)
	}
	if math.Abs(spec.LambdaBarMax-ep.LambdaBarMax) > 1e-6 {
		t.Errorf("epoch reports lambda_bar_max %v, matrix has %v", ep.LambdaBarMax, spec.LambdaBarMax)
	}
	metroSpec, err := linalg.AnalyzeSpectrum(weights.Metropolis(topo, 0))
	if err != nil {
		t.Fatal(err)
	}
	bound := weights.BoundParams{Alpha: alpha}
	if got, floor := weights.DeltaBound(spec, bound), weights.DeltaBound(metroSpec, bound); got < floor-1e-9 {
		t.Errorf("epoch W bound %v worse than Metropolis %v", got, floor)
	}

	// The elastic run's final aggregate loss matches a static 5-node
	// simulation of the same topology, partitions, and horizon.
	var elasticLoss float64
	for _, m := range ep.Members {
		elasticLoss += nodes[m.ID].Engine().LocalLoss()
	}
	staticParts := make([]*Dataset, total)
	for i, m := range ep.Members {
		staticParts[i] = parts[m.ID%total]
	}
	static, err := Train(Config{
		Topology:      topo,
		Model:         NewLinearSVM(data.NumFeature),
		Partitions:    staticParts,
		Alpha:         alpha,
		Policy:        SNAP,
		MaxIterations: horizon,
		Seed:          seed,
		EvalEvery:     horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(elasticLoss - static.FinalLoss); diff > 0.1*static.FinalLoss+0.02 {
		t.Errorf("elastic aggregate loss %v vs static %v (diff %v)", elasticLoss, static.FinalLoss, diff)
	}

	// Observability: the node-side registry exposes the epoch gauge and
	// reconfiguration counter, the event log recorded the epoch switch,
	// and the coordinator's registry tracked membership and broadcasts.
	snapMetrics := nodeReg.Snapshot()
	if got, _ := snapMetrics[obs.MEpoch].(float64); got != 2 {
		t.Errorf("node snapshot %s = %v, want 2", obs.MEpoch, snapMetrics[obs.MEpoch])
	}
	if got, _ := snapMetrics[obs.MEpochsApplied].(int64); got < 1 {
		t.Errorf("node snapshot %s = %v, want >= 1", obs.MEpochsApplied, snapMetrics[obs.MEpochsApplied])
	}
	if got := nodeReg.Histogram(obs.MReconfigSeconds, obs.TimeBuckets).Count(); got < 1 {
		t.Errorf("node %s observed %d epoch switches, want >= 1", obs.MReconfigSeconds, got)
	}
	if !strings.Contains(eventBuf.String(), obs.EvEpochApplied) {
		t.Errorf("event log has no %q event", obs.EvEpochApplied)
	}
	if got := coordReg.Gauge(obs.MMembers).Value(); got != total {
		t.Errorf("coordinator %s = %v, want %d", obs.MMembers, got, total)
	}
	if got := coordReg.Counter(obs.MEpochsBroadcast).Value(); got != 2 {
		t.Errorf("coordinator %s = %v, want 2", obs.MEpochsBroadcast, got)
	}
}
