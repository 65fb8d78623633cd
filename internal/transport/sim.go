// Package transport moves SNAP frames between edge servers.
//
// Two implementations are provided:
//
//   - Sim: a deterministic in-memory network for the paper's large-scale
//     simulations. It delivers frames in lockstep rounds over a fixed
//     topology, injects per-round link failures (the straggler experiments
//     of Fig. 9), and charges every message hops × bytes to a cost ledger
//     (the paper's definition of communication cost).
//
//   - Peer: a real TCP endpoint for the testbed mode: length-prefixed
//     frames over persistent connections between neighbor edge servers,
//     with a round-tagged gather that tolerates missing neighbors
//     (stragglers) via timeout.
package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
)

// Sim is a lockstep simulated network over a fixed topology. Frames sent
// to a neighbor during a round wait in the receiver's inbox for that
// round's CollectStream. Direct neighbor traffic crosses one hop; Unicast
// traffic is only charged, along shortest paths. Sim is safe for
// concurrent use by per-node goroutines within a round.
type Sim struct {
	topo   *graph.Graph
	hops   [][]int
	ledger *metrics.CostLedger

	// failureRate is the per-round probability that an individual link is
	// down (both directions). Failed links drop neighbor frames silently,
	// which is exactly the paper's straggler model: the receiver just
	// reuses the neighbor's last parameters.
	failureRate float64
	failureRNG  *rand.Rand

	mu        sync.Mutex
	round     int
	downLinks map[graph.Edge]bool
	inboxes   []map[int][]byte // inboxes[to][from] = frame
	// inboxSpare holds each node's off-duty inbox map: CollectStream
	// swaps the active map with the (cleared) spare instead of
	// allocating a fresh map per call, so the steady-state round loop
	// reuses two maps per node forever.
	inboxSpare []map[int][]byte
	dropped    int64 // frames lost to failed links

	// nbrSorted caches each node's neighbor ids in ascending order so
	// CollectStream delivers deterministically without re-querying (and
	// re-copying) the topology every round. Immutable after NewSim.
	nbrSorted [][]int
}

// NewSim builds a simulated network over topo. ledger may be nil, in which
// case an internal ledger is created (retrievable via Ledger).
func NewSim(topo *graph.Graph, ledger *metrics.CostLedger) *Sim {
	if ledger == nil {
		ledger = metrics.NewCostLedger()
	}
	s := &Sim{
		topo:   topo,
		hops:   topo.AllPairsHops(),
		ledger: ledger,
	}
	n := topo.N()
	s.downLinks = make(map[graph.Edge]bool)
	s.inboxes = make([]map[int][]byte, n)
	s.inboxSpare = make([]map[int][]byte, n)
	s.nbrSorted = make([][]int, n)
	for i := 0; i < n; i++ {
		s.inboxes[i] = make(map[int][]byte)
		s.inboxSpare[i] = make(map[int][]byte)
		s.nbrSorted[i] = topo.Neighbors(i)
	}
	return s
}

// SetFailures enables per-round link failures: each link is independently
// down for a whole round with probability rate, drawn deterministically
// from seed.
func (s *Sim) SetFailures(rate float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failureRate = rate
	s.failureRNG = rand.New(rand.NewSource(seed))
}

// Ledger returns the cost ledger charged by this network.
func (s *Sim) Ledger() *metrics.CostLedger { return s.ledger }

// Neighbors returns the neighbor set of node i.
func (s *Sim) Neighbors(i int) []int { return s.topo.Neighbors(i) }

// Dropped returns the number of frames lost to failed links so far.
func (s *Sim) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// BeginRound starts round r: clears inboxes and resamples link failures.
// Rounds must begin in nondecreasing order.
func (s *Sim) BeginRound(r int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round = r
	for _, box := range s.inboxes {
		clear(box)
	}
	for k := range s.downLinks {
		delete(s.downLinks, k)
	}
	if s.failureRate > 0 && s.failureRNG != nil {
		for _, e := range s.topo.Edges() {
			if s.failureRNG.Float64() < s.failureRate {
				s.downLinks[e] = true
			}
		}
	}
}

// Send transmits a frame from node `from` to direct neighbor `to` during
// the current round. It returns an error if the nodes are not neighbors.
// If the link is down this round the frame is dropped silently (the
// sender cannot tell — as with a congested wireless link) but the cost is
// not charged, since the frame never crossed the link.
//
// The frame is aliased, not copied: the sender must not rewrite the
// buffer until the round's receivers have collected and consumed it,
// which the lockstep protocol (send phase → barrier → collect phase)
// guarantees.
func (s *Sim) Send(from, to int, frame []byte) error {
	if !s.topo.HasEdge(from, to) {
		return fmt.Errorf("transport: %d→%d are not neighbors", from, to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.downLinks[canonical(from, to)] {
		s.dropped++
		return nil
	}
	s.ledger.Record(s.round, 1, len(frame))
	s.inboxes[to][from] = frame
	return nil
}

// Unicast charges a frame sent between two arbitrary nodes along the
// shortest path: hops × bytes. The parameter-server baselines use it for
// their cost accounting only — they hand the vectors over in memory — so
// nothing is queued for delivery. Unicast traffic is not subject to
// link-failure injection (the PS baselines in the paper are evaluated
// without stragglers).
func (s *Sim) Unicast(from, to int, frame []byte) error {
	h := s.hops[from][to]
	if h < 0 {
		return fmt.Errorf("transport: no path %d→%d", from, to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger.Record(s.round, h, len(frame))
	return nil
}

// CollectStream drains node i's inbox for the current round, delivering
// (sender, frame) pairs in ascending sender-id order — the streaming
// shape of Peer.GatherStream, so simulated and TCP round loops share one
// ingest path. A lockstep network has no mid-round arrivals, so the
// whole inbox is delivered synchronously; the value of the streaming
// form here is the fixed per-sender iteration order. Frames are the
// senders' own buffers (see Send) and stay valid until the next round's
// sends. deliver returning false stops the stream early (remaining
// frames are discarded with the round). Returns the number of frames
// delivered.
func (s *Sim) CollectStream(i int, deliver func(from int, frame []byte) bool) int {
	s.mu.Lock()
	box := s.inboxes[i]
	spare := s.inboxSpare[i]
	clear(spare)
	s.inboxes[i], s.inboxSpare[i] = spare, box
	s.mu.Unlock()

	n := 0
	for _, from := range s.nbrSorted[i] {
		frame, ok := box[from]
		if !ok {
			continue
		}
		n++
		if !deliver(from, frame) {
			break
		}
	}
	return n
}

// Hops returns the shortest-path hop count between two nodes (-1 if
// disconnected).
func (s *Sim) Hops(from, to int) int { return s.hops[from][to] }

func canonical(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}
