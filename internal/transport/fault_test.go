package transport

import (
	"testing"
	"time"
)

func TestFaultDropLosesFrameSilently(t *testing.T) {
	peers := startPeers(t, 2)
	faults := NewFaultSet().Add(FaultRule{Peer: 1, Round: 0, Action: FaultDrop})
	peers[0].SetFaults(faults)

	if err := peers[0].Send(1, 0, []byte("lost")); err != nil {
		t.Fatalf("dropped send must look successful to the sender, got %v", err)
	}
	if got := peers[0].BytesSent(); got != 0 {
		t.Errorf("BytesSent after drop = %d, want 0 (frame never crossed the link)", got)
	}
	if got := peers[1].Gather(0, 200*time.Millisecond); len(got) != 0 {
		t.Errorf("receiver gathered %v, want nothing", got)
	}

	// One-shot: the next round goes through.
	if err := peers[0].Send(1, 1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if got := peers[1].Gather(1, 2*time.Second); string(got[0]) != "kept" {
		t.Errorf("round 1 gather = %v, want the frame delivered", got)
	}
}

// TestFaultDelayStallsThenDelivers: the delay holds the frame back on
// the link, not the sender — Send returns at once and the frame lands
// about one delay later.
func TestFaultDelayStallsThenDelivers(t *testing.T) {
	peers := startPeers(t, 2)
	const delay = 150 * time.Millisecond
	peers[0].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 1, Round: 0, Action: FaultDelay, Delay: delay}))

	start := time.Now()
	if err := peers[0].Send(1, 0, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Errorf("delayed send blocked its caller for %v, want < %v", elapsed, delay)
	}
	if got := peers[1].Gather(0, 2*time.Second); len(got) != 1 || string(got[0]) != "slow" {
		t.Errorf("gather = %v, want the delayed frame", got)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("delayed frame arrived after %v, want ≥ %v", elapsed, delay)
	}
}

// TestFaultDelayKeepsLinkOrder: a frame sent behind a delayed one on the
// same link waits for it, so the link's frames arrive in order.
func TestFaultDelayKeepsLinkOrder(t *testing.T) {
	peers := startPeers(t, 2)
	const delay = 80 * time.Millisecond
	peers[0].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 1, Round: 0, Action: FaultDelay, Delay: delay}))

	start := time.Now()
	for r, msg := range []string{"first", "second"} {
		if err := peers[0].Send(1, r, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("second send returned after %v, want it queued behind the %v delay", elapsed, delay)
	}
	for r, msg := range []string{"first", "second"} {
		if got := peers[1].Gather(r, 2*time.Second); len(got) != 1 || string(got[0]) != msg {
			t.Errorf("round %d gather = %v, want %q", r, got, msg)
		}
	}
}

// TestFaultDelayCloseCancels: closing the sender abandons a frame still
// held back by a delay instead of waiting the delay out.
func TestFaultDelayCloseCancels(t *testing.T) {
	peers := startPeers(t, 2)
	peers[0].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 1, Round: 0, Action: FaultDelay, Delay: time.Minute}))
	if err := peers[0].Send(1, 0, []byte("never")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	peers[0].Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Close took %v with a delayed frame pending, want it to cancel the delay", elapsed)
	}
	if got := peers[1].Gather(0, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("receiver gathered %v from a closed sender, want nothing", got)
	}
}

func TestFaultResetKillsConnection(t *testing.T) {
	peers := startPeers(t, 2)
	peers[0].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 1, Round: 3, Action: FaultReset}))

	// Rounds before the scheduled fault are unaffected.
	for r := 0; r < 3; r++ {
		if err := peers[0].Send(1, r, []byte("ok")); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if err := peers[0].Send(1, 3, []byte("reset")); err == nil {
		t.Fatal("send at the reset round succeeded, want error")
	}
	// The reconnect machinery heals the link without intervention.
	waitFor(t, 10*time.Second, "link to heal after reset", func() bool {
		return peers[0].Healthy(1) && peers[1].Healthy(0)
	})
}

func TestFaultSetRulesAreOneShotAndKeyed(t *testing.T) {
	f := NewFaultSet()
	f.Add(FaultRule{Peer: 2, Round: 5, Action: FaultDrop})
	f.Add(FaultRule{Peer: 2, Round: 5, Action: FaultReset}) // replaces
	f.Add(FaultRule{Peer: 3, Round: 5, Action: FaultDrop})

	if got := f.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2 (same-key rule replaced)", got)
	}
	if _, ok := f.take(2, 4); ok {
		t.Error("rule fired for wrong round")
	}
	r, ok := f.take(2, 5)
	if !ok || r.Action != FaultReset {
		t.Fatalf("take(2,5) = %+v, %v; want the replacing reset rule", r, ok)
	}
	if _, ok := f.take(2, 5); ok {
		t.Error("rule fired twice")
	}
	if f.Fired() != 1 || f.Pending() != 1 {
		t.Errorf("fired=%d pending=%d, want 1 and 1", f.Fired(), f.Pending())
	}
}

func TestFaultActionString(t *testing.T) {
	cases := map[FaultAction]string{
		FaultDrop:       "drop",
		FaultDelay:      "delay",
		FaultReset:      "reset",
		FaultAction(99): "FaultAction(99)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}
