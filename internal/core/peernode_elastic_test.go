package core

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/controlplane"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/transport"
)

// joinElasticPeerNode performs the coordinator-managed join that the
// public facade does for elastic nodes: bind a listener, join, configure
// the engine from the current epoch's plan, and connect to the epoch's
// neighbors.
func joinElasticPeerNode(t *testing.T, coord *controlplane.Coordinator, m model.Model,
	dataFor func(id int) *EngineConfig, mutate func(cfg *PeerNodeConfig)) *PeerNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := controlplane.Join(controlplane.ClientConfig{
		Coordinator: coord.Addr(),
		Advertise:   ln.Addr().String(),
		JoinWait:    30 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		ln.Close()
		t.Fatalf("join: %v", err)
	}
	plan, err := client.Latest().PlanFor(client.ID())
	if err != nil {
		t.Fatalf("plan: %v", err)
	}

	ecfg := dataFor(client.ID())
	ecfg.ID = client.ID()
	ecfg.Model = m
	ecfg.WRow = plan.WRow
	ecfg.Neighbors = plan.Neighbors
	cfg := PeerNodeConfig{
		Engine:       *ecfg,
		Listener:     ln,
		Control:      client,
		Epoch:        plan.Epoch,
		RoundTimeout: 2 * time.Second,
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pn, err := NewPeerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pn.Close() })
	if err := pn.Connect(plan.Addrs); err != nil {
		t.Logf("node %d: connect to epoch neighbors: %v (continuing)", client.ID(), err)
	}
	return pn
}

// TestElasticJoinSurvivesFaultyLink exercises the control plane and the
// fault machinery together: a fourth node joins mid-training while an
// existing link is deterministically dropping frames. The epoch must
// still reach and be applied by every member, and training must still
// converge — dropped data-plane frames degrade a round to straggler
// timeouts but never block a reconfiguration, which travels over the
// separate control connection.
func TestElasticJoinSurvivesFaultyLink(t *testing.T) {
	const (
		founders = 3
		total    = 4
		// Generous horizon: the join applies whenever the epoch reaches the
		// members (heartbeat lag can put the nominal boundary in the past),
		// and the cluster needs joint rounds after it to re-settle.
		rounds = 100
	)
	ds, parts := smallPartitions(t, total, 60, 21)
	m := model.NewLinearSVM(8)
	init := m.InitParams(31)
	dataFor := func(id int) *EngineConfig {
		return &EngineConfig{
			Data: parts[id%total], Alpha: 0.1,
			Policy: SendSelected, Init: init,
		}
	}

	coord, err := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		MinMembers:   founders,
		AttachDegree: 2,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Node 0 drops its frames to node 1 for three consecutive rounds,
	// overlapping the join window below.
	faults := transport.NewFaultSet().
		Add(transport.FaultRule{Peer: 1, Round: 8, Action: transport.FaultDrop}).
		Add(transport.FaultRule{Peer: 1, Round: 9, Action: transport.FaultDrop}).
		Add(transport.FaultRule{Peer: 1, Round: 10, Action: transport.FaultDrop})
	reg := obs.NewRegistry()
	// Node 1's gathers for the dropped rounds wait out the round timeout
	// (no later frame from node 0 is buffered yet to end them early), so a
	// short one keeps the test from idling.
	shortTimeout := func(cfg *PeerNodeConfig) { cfg.RoundTimeout = 250 * time.Millisecond }

	var (
		mu    sync.Mutex
		nodes = make(map[int]*PeerNode, total)
		wg    sync.WaitGroup
		errs  = make([]error, total)
	)
	runNode := func(slot int, mutate func(cfg *PeerNodeConfig)) {
		defer wg.Done()
		pn := joinElasticPeerNode(t, coord, m, dataFor, mutate)
		mu.Lock()
		nodes[pn.Engine().ID()] = pn
		mu.Unlock()
		_, errs[slot] = pn.Run(rounds)
	}
	// A concurrent Epoch() reader polls every registered member for the
	// whole run: Run writes the epoch when it applies a reconfiguration,
	// so under -race an unsynchronized epoch field fails this test.
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	defer func() { close(stopPoll); <-pollDone }()
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			mu.Lock()
			for _, pn := range nodes {
				_ = pn.Epoch()
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < founders; i++ {
		wg.Add(1)
		// Coordinator ids are assigned by join order, not goroutine index,
		// so pick the faulty member by its assigned id: member 0 is
		// adjacent to member 1 on the founders' triangle, and it also
		// carries the registry the main goroutine watches.
		go runNode(i, func(cfg *PeerNodeConfig) {
			shortTimeout(cfg)
			if cfg.Engine.ID == 0 {
				cfg.Faults = faults
				cfg.Obs = &obs.Observer{Reg: reg}
			}
		})
	}

	// Join the fourth node while the fault window is open.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Gauge(obs.MRound).Value() < 8 {
		if time.Now().After(deadline) {
			t.Fatal("founders never reached round 8")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Add(1)
	go runNode(founders, shortTimeout)
	wg.Wait()

	for slot, err := range errs {
		if err != nil {
			t.Fatalf("node in slot %d aborted: %v", slot, err)
		}
	}
	if len(nodes) != total {
		t.Fatalf("%d distinct member ids, want %d", len(nodes), total)
	}

	// The join produced epoch 2 and every member — including the one
	// behind the faulty link — applied it.
	for id, pn := range nodes {
		if pn.Epoch() != 2 {
			t.Errorf("node %d finished on epoch %d, want 2", id, pn.Epoch())
		}
	}
	if coord.Epoch() != 2 {
		t.Errorf("coordinator epoch = %d, want 2", coord.Epoch())
	}

	// All three drops fired: the 0–1 link exists from the founders'
	// triangle onward, and member 0 broadcasts on it every round.
	if faults.Fired() != 3 {
		t.Fatalf("injected faults fired %d times, want 3", faults.Fired())
	}

	// Training converged: consensus across all four members, and the
	// aggregate objective improved on the shared initialization.
	ref := nodes[0].Engine().Params()
	for id, pn := range nodes {
		if d := pn.Engine().Params().Sub(ref).NormInf(); d > 2e-2 {
			t.Errorf("node %d disagrees with node 0 by %v after %d rounds", id, d, rounds)
		}
	}
	var finalLoss float64
	for _, pn := range nodes {
		finalLoss += pn.Engine().LocalLoss()
	}
	initLoss := float64(total) * model.MeanLoss(m, init, ds)
	if finalLoss >= initLoss {
		t.Errorf("aggregate loss %v did not improve on initial %v", finalLoss, initLoss)
	}
}

// TestEvictedNodeReportsIgnoredEpochOnce checks that a node the newest
// epoch no longer lists says so once, not once per round. A stand-in
// coordinator admits the node as the sole member of epoch 1 and, once
// the node has trained five rounds, pushes an epoch 2 without it — what
// a member evicted while its control connection survived sees.
func TestEvictedNodeReportsIgnoredEpochOnce(t *testing.T) {
	const rounds = 70
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Control frames are [len u32][type u32][JSON]; 2 and 7 are the
	// join_ok and epoch message types.
	push := func(conn net.Conn, typ uint32, payload any) {
		body, err := json.Marshal(payload)
		if err != nil {
			t.Error(err)
			return
		}
		var h [8]byte
		binary.BigEndian.PutUint32(h[:4], uint32(len(body)))
		binary.BigEndian.PutUint32(h[4:], typ)
		conn.Write(append(h[:], body...))
	}
	evict := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var h [8]byte
		if _, err := io.ReadFull(conn, h[:]); err != nil {
			return
		}
		if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(h[:4]))); err != nil {
			return
		}
		push(conn, 2, map[string]int{"id": 0})
		push(conn, 7, controlplane.Epoch{ID: 1, Members: []controlplane.EpochMember{{ID: 0, Addr: "a", Row: []float64{1}}}})
		go io.Copy(io.Discard, conn) // heartbeats
		<-evict
		push(conn, 7, controlplane.Epoch{ID: 2, Members: []controlplane.EpochMember{{ID: 1, Addr: "b", Row: []float64{1}}}})
		<-evict
	}()

	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := controlplane.Join(controlplane.ClientConfig{
		Coordinator: ln.Addr().String(),
		Advertise:   dataLn.Addr().String(),
		JoinWait:    10 * time.Second,
	})
	if err != nil {
		dataLn.Close()
		t.Fatal(err)
	}
	_, parts := smallPartitions(t, 1, 20, 3)
	m := model.NewLinearSVM(8)
	var (
		mu      sync.Mutex
		ignored int
	)
	pn, err := NewPeerNode(PeerNodeConfig{
		Engine: EngineConfig{
			ID: 0, Model: m, Data: parts[0], Alpha: 0.1,
			WRow: []float64{1}, Policy: SendAll, Init: m.InitParams(1),
		},
		Listener: dataLn,
		Control:  client,
		Epoch:    1,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "ignoring epoch") {
				mu.Lock()
				ignored++
				mu.Unlock()
			}
		},
		Feed: sinkFunc(func(round, _ int, _ linalg.Vector) {
			if round != 5 {
				return
			}
			evict <- struct{}{}
			deadline := time.Now().Add(10 * time.Second)
			for client.Latest().ID != 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(evict)
		pn.Close()
	}()
	if _, err := pn.Run(rounds); err != nil {
		t.Fatal(err)
	}
	if client.Latest().ID != 2 {
		t.Fatal("the node never received epoch 2")
	}
	if pn.Epoch() != 1 {
		t.Errorf("node applied epoch %d, which does not list it", pn.Epoch())
	}
	if ignored != 1 {
		t.Errorf("%d rounds after its eviction the node reported the ignored epoch %d times, want 1", rounds-6, ignored)
	}
}

// sinkFunc adapts a function to ParamSink.
type sinkFunc func(round, epoch int, params linalg.Vector)

func (f sinkFunc) Publish(round, epoch int, params linalg.Vector) { f(round, epoch, params) }
