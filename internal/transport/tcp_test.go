package transport

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/obs"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// startPeers launches n fully connected TCP peers on loopback.
func startPeers(t *testing.T, n int) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		p, err := NewPeer(i, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		peers[i] = p
		addrs[i] = p.Addr()
		t.Cleanup(func() { p.Close() })
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for j, a := range addrs {
				if j != i {
					neighbors[j] = a
				}
			}
			errs[i] = peers[i].Connect(neighbors, 5*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("connect peer %d: %v", i, err)
		}
	}
	return peers
}

func TestPeerBroadcastGather(t *testing.T) {
	peers := startPeers(t, 3)
	var wg sync.WaitGroup
	results := make([]map[int][]byte, 3)
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			if err := p.Broadcast(0, []byte(fmt.Sprintf("from-%d", i))); err != nil {
				t.Errorf("broadcast %d: %v", i, err)
				return
			}
			results[i] = p.Gather(0, 5*time.Second)
		}(i, p)
	}
	wg.Wait()
	for i, got := range results {
		if len(got) != 2 {
			t.Fatalf("peer %d gathered %d frames, want 2: %v", i, len(got), got)
		}
		for from, frame := range got {
			if want := fmt.Sprintf("from-%d", from); string(frame) != want {
				t.Errorf("peer %d got %q from %d, want %q", i, frame, from, want)
			}
		}
	}
}

func TestPeerRoundSeparation(t *testing.T) {
	peers := startPeers(t, 2)
	// Peer 0 sends rounds 1 and 2 back-to-back; peer 1 must see them
	// separately.
	if err := peers[0].Send(1, 1, []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := peers[0].Send(1, 2, []byte("r2")); err != nil {
		t.Fatal(err)
	}
	got1 := peers[1].Gather(1, 2*time.Second)
	if string(got1[0]) != "r1" {
		t.Errorf("round 1 gather = %v", got1)
	}
	got2 := peers[1].Gather(2, 2*time.Second)
	if string(got2[0]) != "r2" {
		t.Errorf("round 2 gather = %v", got2)
	}
}

func TestPeerGatherTimeoutOnStraggler(t *testing.T) {
	peers := startPeers(t, 3)
	// Only peer 1 sends; peer 2 stays silent (straggler).
	if err := peers[1].Send(0, 0, []byte("present")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := peers[0].Gather(0, 300*time.Millisecond)
	elapsed := time.Since(start)
	if len(got) != 1 || string(got[1]) != "present" {
		t.Errorf("gather = %v, want only peer 1's frame", got)
	}
	if elapsed < 250*time.Millisecond {
		t.Errorf("gather returned after %v, expected to wait out the timeout", elapsed)
	}
}

func TestPeerBytesSent(t *testing.T) {
	peers := startPeers(t, 2)
	payload := make([]byte, 1000)
	if err := peers[0].Send(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	if got := peers[0].BytesSent(); got != 1000 {
		t.Errorf("BytesSent = %d, want 1000", got)
	}
	if got := peers[1].BytesSent(); got != 0 {
		t.Errorf("receiver BytesSent = %d, want 0", got)
	}
}

func TestPeerForgetRound(t *testing.T) {
	peers := startPeers(t, 2)
	if err := peers[0].Send(1, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Let the frame arrive and be buffered.
	got := peers[1].Gather(0, 2*time.Second)
	if len(got) != 1 {
		t.Fatalf("gather = %v", got)
	}
	peers[1].ForgetRound(0)
	if got := peers[1].Gather(0, 50*time.Millisecond); len(got) != 0 {
		t.Errorf("forgotten round still gathered: %v", got)
	}
}

// TestPeerSendToUnknownNeighbor also checks that the rejected send leaves
// the registry alone: a send to an id with no connection must not
// register snap_link_*{peer="5"} series that live forever.
func TestPeerSendToUnknownNeighbor(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := obs.NewRegistry()
	p.SetObserver(&obs.Observer{Reg: reg})
	before := reg.Text()
	if err := p.Send(5, 0, []byte("x")); err == nil {
		t.Error("send to unconnected neighbor accepted")
	}
	if after := reg.Text(); after != before {
		t.Errorf("send to unknown neighbor changed the exposition:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestPeerConnectRejectsSelf(t *testing.T) {
	p, err := NewPeer(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Connect(map[int]string{3: p.Addr()}, time.Second); err == nil {
		t.Error("self-neighbor accepted")
	}
}

func TestPeerCloseIdempotent(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerEvictsDeadConn kills one peer and checks the survivor evicts the
// connection: Healthy flips false, Gather no longer counts the dead
// neighbor (so it returns as soon as live neighbors report), and
// Broadcast stops erroring.
func TestPeerEvictsDeadConn(t *testing.T) {
	peers := startPeers(t, 3)

	// A concurrent Stats() reader spans the eviction, which writes the
	// dead link's stats: under -race an unlocked stats path fails here.
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	defer func() { close(stopPoll); <-pollDone }()
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
				_ = peers[0].Stats()
				runtime.Gosched()
			}
		}
	}()
	peers[2].Close()

	waitFor(t, 5*time.Second, "eviction of dead conn", func() bool {
		return !peers[0].Healthy(2) && !peers[1].Healthy(2)
	})

	// Gather must not wait the full timeout for the evicted neighbor.
	if err := peers[1].Send(0, 0, []byte("live")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got := peers[0].Gather(0, 10*time.Second)
	elapsed := time.Since(start)
	if len(got) != 1 || string(got[1]) != "live" {
		t.Fatalf("gather = %v, want only the live neighbor's frame", got)
	}
	if elapsed > 2*time.Second {
		t.Errorf("gather took %v with a dead neighbor; eviction should keep it fast", elapsed)
	}

	// Broadcast skips the dead link rather than erroring forever.
	if err := peers[0].Broadcast(1, []byte("x")); err != nil {
		t.Errorf("broadcast after eviction: %v", err)
	}

	st := peers[0].Stats()[2]
	if st.Disconnects < 1 {
		t.Errorf("stats for dead link = %+v, want at least one disconnect", st)
	}
}

// TestPeerReconnectAfterReset resets the only connection of a two-peer
// pair via fault injection and checks that the link heals itself with
// backoff, fires the reconnect handler on both sides, and carries frames
// again.
func TestPeerReconnectAfterReset(t *testing.T) {
	peers := startPeers(t, 2)

	reconnected := make(chan int, 4)
	for _, p := range peers {
		p.SetReconnectHandler(func(nid int) { reconnected <- nid })
	}

	faults := NewFaultSet().Add(FaultRule{Peer: 1, Round: 0, Action: FaultReset})
	peers[0].SetFaults(faults)

	if err := peers[0].Send(1, 0, []byte("doomed")); err == nil {
		t.Fatal("send through injected reset succeeded, want error")
	}
	if faults.Fired() != 1 {
		t.Fatalf("faults fired = %d, want 1", faults.Fired())
	}

	waitFor(t, 10*time.Second, "link to heal", func() bool {
		return peers[0].Healthy(1) && peers[1].Healthy(0)
	})

	select {
	case <-reconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("reconnect handler never fired")
	}

	// The healed link carries frames again (the reset rule was one-shot).
	waitFor(t, 5*time.Second, "frame over healed link", func() bool {
		if err := peers[0].Send(1, 1, []byte("healed")); err != nil {
			return false
		}
		got := peers[1].Gather(1, time.Second)
		return string(got[0]) == "healed"
	})

	if st := peers[0].Stats()[1]; st.Reconnects < 1 || st.Disconnects < 1 {
		t.Errorf("peer 0 link stats = %+v, want at least one disconnect and reconnect", st)
	}
}

// TestPeerConnectFailsWithinBudget checks that Connect returns once its
// budget is spent, while the dial loop it started keeps retrying.
func TestPeerConnectFailsWithinBudget(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	err = p.Connect(map[int]string{1: deadAddr(t)}, 500*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("connect to dead address succeeded")
	}
	if elapsed > 500*time.Millisecond+2*dialAttemptTimeout {
		t.Errorf("connect took %v, want bounded by the %v budget plus one capped attempt", elapsed, 500*time.Millisecond)
	}
}

// deadAddr reserves a loopback port and releases it, so nothing listens
// there until a test binds it again.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestPeerConnectRetriesUnreachedNeighbor checks that a neighbor nobody
// listens for while Connect runs is still dialed afterwards: once it
// listens, the link forms without a second Connect on the dialing side.
func TestPeerConnectRetriesUnreachedNeighbor(t *testing.T) {
	p0, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	addr := deadAddr(t)
	if err := p0.Connect(map[int]string{1: addr}, 200*time.Millisecond); err == nil {
		t.Fatal("connect to an address nobody listens on succeeded")
	}
	p1, err := NewPeer(1, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if err := p1.Connect(map[int]string{0: p0.Addr()}, 3*time.Second); err != nil {
		t.Fatalf("link never formed after the neighbor started listening: %v", err)
	}
	// The accepting side's Connect returns once it registered the link;
	// the dialer registers its end of the same connection independently.
	waitFor(t, 3*time.Second, "the dialing side's connection to 1", func() bool { return p0.Healthy(1) })
}

// TestPeerConnectDialsEveryReachableNeighbor gives Connect one dead and
// one live higher-id neighbor: the live one must be connected whatever
// order the neighbor map is visited in, which the trials cover.
func TestPeerConnectDialsEveryReachableNeighbor(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p0, err := NewPeer(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p2, err := NewPeer(2, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := p0.Connect(map[int]string{1: deadAddr(t), 2: p2.Addr()}, 50*time.Millisecond); err == nil {
			t.Fatal("connect with a dead neighbor succeeded")
		}
		waitFor(t, 5*time.Second, "link to the live neighbor", func() bool {
			return p0.Healthy(2) && p2.Healthy(0)
		})
		p0.Close()
		p2.Close()
	}
}

// TestPeerCloseDuringConcurrentAccepts hammers a closing peer with new
// connections; under -race this exercises the addConn/Close WaitGroup
// ordering.
func TestPeerCloseDuringConcurrentAccepts(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		p, err := NewPeer(0, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := p.Addr()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer conn.Close()
				var hello [4]byte
				hello[3] = byte(id + 1)
				conn.Write(hello[:])
				time.Sleep(time.Millisecond)
			}(i)
		}
		time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()
	}
}

func TestPeerManyRoundsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping load test in -short mode")
	}
	peers := startPeers(t, 4)
	const rounds = 30
	var wg sync.WaitGroup
	failures := make([]error, len(peers))
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload := []byte(fmt.Sprintf("%d:%d", i, r))
				if err := p.Broadcast(r, payload); err != nil {
					failures[i] = err
					return
				}
				got := p.Gather(r, 5*time.Second)
				if len(got) != 3 {
					failures[i] = fmt.Errorf("round %d: got %d frames", r, len(got))
					return
				}
				p.ForgetRound(r)
			}
		}(i, p)
	}
	wg.Wait()
	for i, err := range failures {
		if err != nil {
			t.Errorf("peer %d: %v", i, err)
		}
	}
}

// Gather is the batch view of GatherStream the assertions here read: the
// round's frames as a sender → frame map, once every expected neighbor
// has delivered or the timeout has passed.
func (p *Peer) Gather(round int, timeout time.Duration) map[int][]byte {
	got := make(map[int][]byte)
	p.GatherStream(round, timeout, func(from int, frame []byte) bool {
		got[from] = frame
		return true
	})
	return got
}
