package transport

import (
	"sync"
	"testing"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
)

func TestSimNeighborDelivery(t *testing.T) {
	g := graph.Ring(4)
	s := NewSim(g, nil)
	s.BeginRound(0)
	if err := s.Send(0, 1, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(2, 1, []byte("cde")); err != nil {
		t.Fatal(err)
	}
	in := s.Collect(1)
	if len(in) != 2 || string(in[0]) != "ab" || string(in[2]) != "cde" {
		t.Errorf("Collect(1) = %v", in)
	}
	// Collect drains.
	if len(s.Collect(1)) != 0 {
		t.Error("second Collect not empty")
	}
}

func TestSimRejectsNonNeighborSend(t *testing.T) {
	g := graph.Ring(5) // 0 and 2 are not adjacent
	s := NewSim(g, nil)
	s.BeginRound(0)
	if err := s.Send(0, 2, []byte("x")); err == nil {
		t.Error("non-neighbor Send accepted")
	}
}

func TestSimCostAccounting(t *testing.T) {
	g := graph.Ring(6)
	led := metrics.NewCostLedger()
	s := NewSim(g, led)
	s.BeginRound(0)
	if err := s.Send(0, 1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Neighbor traffic: 1 hop × 100 bytes.
	if got := led.Total(); got != 100 {
		t.Errorf("neighbor cost = %v, want 100", got)
	}
	// Unicast 0→3 on a 6-ring crosses 3 hops.
	if err := s.Unicast(0, 3, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if got := led.Total(); got != 130 {
		t.Errorf("total cost = %v, want 130", got)
	}
	if got := s.Hops(0, 3); got != 3 {
		t.Errorf("Hops(0,3) = %d, want 3", got)
	}
}

func TestSimUnicastDelivery(t *testing.T) {
	g := graph.Ring(5)
	s := NewSim(g, nil)
	s.BeginRound(0)
	if err := s.Unicast(0, 2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	// Unicast only charges the ledger: 2 bytes over the 2-hop path.
	led := s.Ledger()
	if led.Total() != 4 || led.Bytes() != 2 || led.RoundCost(0) != 4 {
		t.Errorf("unicast charged cost %v, %d bytes, round cost %v; want 4, 2, 4",
			led.Total(), led.Bytes(), led.RoundCost(0))
	}
	// Nothing is queued, in particular not in the neighbor inbox.
	if len(s.Collect(2)) != 0 {
		t.Error("unicast leaked into neighbor inbox")
	}
}

func TestSimUnicastDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	s := NewSim(g, nil)
	s.BeginRound(0)
	if err := s.Unicast(0, 2, []byte("x")); err == nil {
		t.Error("unicast across disconnected components accepted")
	}
}

func TestSimBeginRoundClearsInboxes(t *testing.T) {
	g := graph.Ring(3)
	s := NewSim(g, nil)
	s.BeginRound(0)
	if err := s.Send(0, 1, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	s.BeginRound(1)
	if got := s.Collect(1); len(got) != 0 {
		t.Errorf("stale frame survived BeginRound: %v", got)
	}
}

func TestSimLinkFailures(t *testing.T) {
	g := graph.Complete(4)
	s := NewSim(g, nil)
	s.SetFailures(1.0, 42) // every link down every round
	s.BeginRound(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if err := s.Send(i, j, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if got := s.Collect(i); len(got) != 0 {
			t.Errorf("node %d received %d frames through failed links", i, len(got))
		}
	}
	if s.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", s.Dropped())
	}
	// No cost charged for dropped frames.
	if s.Ledger().Total() != 0 {
		t.Errorf("cost charged for dropped frames: %v", s.Ledger().Total())
	}
}

func TestSimFailuresDeterministic(t *testing.T) {
	run := func() int64 {
		g := graph.RandomConnected(20, 3, newSeededRand(5))
		s := NewSim(g, nil)
		s.SetFailures(0.3, 99)
		total := 0
		for r := 0; r < 10; r++ {
			s.BeginRound(r)
			for _, e := range g.Edges() {
				if err := s.Send(e.U, e.V, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < g.N(); i++ {
				total += len(s.Collect(i))
			}
		}
		return int64(total)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("failure injection not deterministic: %d vs %d", a, b)
	}
}

func TestSimZeroFailureRateDeliversAll(t *testing.T) {
	g := graph.Ring(10)
	s := NewSim(g, nil)
	s.SetFailures(0, 7)
	s.BeginRound(0)
	for _, e := range g.Edges() {
		if err := s.Send(e.U, e.V, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	for i := 0; i < 10; i++ {
		delivered += len(s.Collect(i))
	}
	if delivered != 10 {
		t.Errorf("delivered %d frames, want 10", delivered)
	}
}

func TestSimConcurrentSends(t *testing.T) {
	g := graph.Complete(8)
	s := NewSim(g, nil)
	s.BeginRound(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for to := 0; to < 8; to++ {
				if to != from {
					if err := s.Send(from, to, []byte{byte(from)}); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if got := len(s.Collect(i)); got != 7 {
			t.Errorf("node %d received %d frames, want 7", i, got)
		}
	}
}

// Collect is the batch view of CollectStream the assertions here read:
// node i's inbox for the current round as a sender → frame map.
func (s *Sim) Collect(i int) map[int][]byte {
	out := make(map[int][]byte)
	s.CollectStream(i, func(from int, frame []byte) bool {
		out[from] = frame
		return true
	})
	return out
}
