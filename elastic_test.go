package snap

// End-to-end acceptance test for the elastic control plane: a TCP
// cluster founded through a coordinator trains for some rounds, a new
// node joins mid-run, the coordinator re-optimizes W for the grown
// topology, members switch to it edge by edge without restarting EXTRA,
// and the final loss matches a static run of the same (N+1)-node
// problem. The test lives in the snap package (not snap_test) so it can
// use the internal spectral machinery to verify the re-optimized W
// against the Metropolis baseline.

import (
	"bytes"
	"encoding/json"
	"io"
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
		// The founders pause after round joinAt until the fifth node is
		// admitted, so the join lands a round or two later whatever the
		// machine's speed.
		joinAt  = 5
		horizon = 100
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
		Bound:        BoundParams{Alpha: alpha},
		Logf:         t.Logf,
		Obs:          NewObserver(coordReg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Every founder's event log pauses it at the end of round joinAt;
	// the first to get there starts the join, and the fifth node's
	// admission releases them all. Founder 0 also carries the node-side
	// observability checked at the end.
	nodeReg := NewMetricsRegistry()
	var eventBuf bytes.Buffer
	reached, admitted := make(chan struct{}), make(chan struct{})
	var reachedOnce sync.Once

	newNode := func(founder, withObs bool) (*PeerNode, error) {
		var observer *Observer
		if founder {
			tap := &roundTap{at: joinAt, reached: func() { reachedOnce.Do(func() { close(reached) }) }, release: admitted}
			var reg *MetricsRegistry
			if withObs {
				tap.w, reg = &eventBuf, nodeReg
			}
			observer = NewObserver(reg, NewEventLog(tap))
		}
		return NewPeerNode(PeerConfig{
			Model: NewLinearSVM(data.NumFeature),
			DataForID: func(id int) *Dataset {
				if id == founders {
					close(admitted) // called once the coordinator admitted the fifth node
				}
				return parts[id%total]
			},
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
		node, err := newNode(slot < founders, withObs)
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

	// Join the fifth node once the founders have trained joinAt rounds.
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatalf("founders never finished round %d", joinAt)
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

	// Every member ends on epoch 2 (founding epoch + the join), and no
	// member restarted EXTRA: each edge switched on its own.
	for id, node := range nodes {
		if node.Epoch() != 2 {
			t.Errorf("node %d finished on epoch %d, want 2", id, node.Epoch())
		}
		if r := node.Engine().Restarts(); r != 0 {
			t.Errorf("node %d restarted EXTRA %d times", id, r)
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

// roundTap is an event-log writer that pauses its node at the end of
// round at: it calls reached, then blocks until release is closed.
// Events pass on to w when it is set.
type roundTap struct {
	at      int
	reached func()
	release <-chan struct{}
	w       io.Writer
}

func (r *roundTap) Write(b []byte) (int, error) {
	var ev obs.Event
	if json.Unmarshal(b, &ev) == nil && ev.Type == obs.EvRoundEnd && ev.Round == r.at {
		r.reached()
		<-r.release
	}
	if r.w == nil {
		return len(b), nil
	}
	return r.w.Write(b)
}
