package transport

import (
	"sync"
	"testing"
	"time"
)

// TestGatherStreamDeliversIncrementally proves frames reach the deliver
// callback as they arrive, not after the barrier: the second sender waits
// until the receiver has already consumed the first frame, so a batching
// implementation would deadlock here (it could never release frame one
// before frame two was sent).
func TestGatherStreamDeliversIncrementally(t *testing.T) {
	peers := startPeers(t, 3)
	firstSeen := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := peers[1].Send(0, 0, []byte("early")); err != nil {
			t.Errorf("send from 1: %v", err)
		}
		<-firstSeen // frame two only exists after frame one was delivered
		if err := peers[2].Send(0, 0, []byte("late")); err != nil {
			t.Errorf("send from 2: %v", err)
		}
	}()

	var order []int
	got, want := peers[0].GatherStream(0, 10*time.Second, func(from int, frame []byte) bool {
		order = append(order, from)
		if len(order) == 1 {
			if from != 1 || string(frame) != "early" {
				t.Errorf("first delivery = (%d, %q), want (1, early)", from, frame)
			}
			close(firstSeen)
		}
		return true
	})
	wg.Wait()

	if got != 2 || want != 2 {
		t.Fatalf("GatherStream = (got %d, want %d), expected (2, 2)", got, want)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}

// TestGatherStreamFaultDrop checks the straggler path: a silently dropped
// frame leaves the stream short, so it delivers what it has and returns
// got < want at the deadline instead of blocking forever.
func TestGatherStreamFaultDrop(t *testing.T) {
	peers := startPeers(t, 3)
	peers[1].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 0, Round: 0, Action: FaultDrop}))

	if err := peers[1].Send(0, 0, []byte("lost")); err != nil {
		t.Fatalf("dropped send must look successful, got %v", err)
	}
	if err := peers[2].Send(0, 0, []byte("kept")); err != nil {
		t.Fatal(err)
	}

	const timeout = 300 * time.Millisecond
	start := time.Now()
	var froms []int
	got, want := peers[0].GatherStream(0, timeout, func(from int, frame []byte) bool {
		froms = append(froms, from)
		return true
	})
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("short stream returned after %v, want the full %v deadline", elapsed, timeout)
	}
	if got != 1 || want != 2 {
		t.Errorf("GatherStream = (got %d, want %d), expected (1, 2) after a drop", got, want)
	}
	if len(froms) != 1 || froms[0] != 2 {
		t.Errorf("delivered senders = %v, want just [2]", froms)
	}
}

// TestGatherStreamFaultDelay checks a delayed frame still lands inside a
// generous deadline: the stream keeps waiting after the prompt frames and
// picks up the slow one when it finally crosses the link.
func TestGatherStreamFaultDelay(t *testing.T) {
	peers := startPeers(t, 2)
	const delay = 150 * time.Millisecond
	peers[1].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 0, Round: 0, Action: FaultDelay, Delay: delay}))

	start := time.Now()
	if err := peers[1].Send(0, 0, []byte("slow")); err != nil {
		t.Fatalf("delayed send: %v", err)
	}
	got, want := peers[0].GatherStream(0, 5*time.Second, func(from int, frame []byte) bool {
		if from != 1 || string(frame) != "slow" {
			t.Errorf("delivery = (%d, %q), want (1, slow)", from, frame)
		}
		return true
	})
	elapsed := time.Since(start)

	if got != 1 || want != 1 {
		t.Errorf("GatherStream = (got %d, want %d), expected (1, 1)", got, want)
	}
	if elapsed < delay {
		t.Errorf("stream returned after %v, cannot have waited out the %v delay", elapsed, delay)
	}
	if elapsed > 4*time.Second {
		t.Errorf("stream took %v, should return as soon as the delayed frame lands", elapsed)
	}
}

// TestGatherStreamFaultReset checks that losing a connection mid-stream
// re-evaluates want downward: once the reset link is evicted the stream
// has every frame it can still expect and returns well before the
// deadline instead of waiting on a peer that cannot deliver. The sender
// is closed right after the injected reset — otherwise the reconnect
// machinery (correctly) revives the link and restores want.
func TestGatherStreamFaultReset(t *testing.T) {
	peers := startPeers(t, 2)
	peers[1].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 0, Round: 0, Action: FaultReset}))
	if err := peers[1].Send(0, 0, []byte("doomed")); err == nil {
		t.Fatal("send at the reset round succeeded, want error")
	}
	peers[1].Close() // keep the link down: no listener left to heal against

	const timeout = 10 * time.Second
	start := time.Now()
	got, want := peers[0].GatherStream(0, timeout, func(from int, frame []byte) bool {
		t.Errorf("unexpected delivery from %d", from)
		return true
	})
	elapsed := time.Since(start)

	if got != 0 {
		t.Errorf("got = %d frames, want 0", got)
	}
	if want != 0 {
		t.Errorf("want = %d after eviction, expected 0 (dead link no longer counted)", want)
	}
	if elapsed > timeout/2 {
		t.Errorf("stream took %v with a dead peer; membership nudge should end it early", elapsed)
	}
}

// TestGatherStreamDropMidStream drops a neighbor while the stream is
// blocked waiting on it — the transport half of an elastic Reconfigure
// landing mid-round. The membership change must wake the stream and
// shrink want so the round completes with the surviving frames.
func TestGatherStreamDropMidStream(t *testing.T) {
	peers := startPeers(t, 3)
	if err := peers[1].Send(0, 0, []byte("present")); err != nil {
		t.Fatal(err)
	}

	const timeout = 10 * time.Second
	delivered := make(chan struct{})
	go func() {
		<-delivered // stream is live and has consumed peer 1's frame
		peers[0].Drop(2)
	}()

	start := time.Now()
	var once sync.Once
	got, want := peers[0].GatherStream(0, timeout, func(from int, frame []byte) bool {
		if from != 1 {
			t.Errorf("delivery from %d, want only peer 1", from)
		}
		once.Do(func() { close(delivered) })
		return true
	})
	elapsed := time.Since(start)

	if got != 1 || want != 1 {
		t.Errorf("GatherStream = (got %d, want %d), expected (1, 1) after dropping peer 2", got, want)
	}
	if elapsed > timeout/2 {
		t.Errorf("stream took %v; Drop should shrink want and end the wait", elapsed)
	}
}

// TestGatherStreamAbortKeepsFramesPending checks the two halves of the
// abort contract: returning false stops delivery immediately, and frames
// stay in the pending buffer until ForgetRound, so a later batch Gather
// (itself built on the stream) still sees the whole round.
func TestGatherStreamAbortKeepsFramesPending(t *testing.T) {
	peers := startPeers(t, 3)
	if err := peers[1].Send(0, 0, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := peers[2].Send(0, 0, []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Both frames are in flight; wait until they are buffered so the
	// abort decision races nothing.
	waitFor(t, 5*time.Second, "both frames pending", func() bool {
		return len(peers[0].Gather(0, 10*time.Millisecond)) == 2
	})

	calls := 0
	got, _ := peers[0].GatherStream(0, 5*time.Second, func(from int, frame []byte) bool {
		calls++
		return false // abort after the first frame
	})
	if calls != 1 {
		t.Fatalf("deliver ran %d times after abort, want 1", calls)
	}
	if got != 1 {
		t.Errorf("aborted stream got = %d, want 1", got)
	}

	// The aborted round is replayable in full…
	if again := peers[0].Gather(0, 2*time.Second); len(again) != 2 {
		t.Errorf("re-gather after abort = %d frames, want 2 (abort must not consume)", len(again))
	}
	// …until the caller retires it.
	peers[0].ForgetRound(0)
	if after := peers[0].Gather(0, 50*time.Millisecond); len(after) != 0 {
		t.Errorf("gather after ForgetRound = %d frames, want 0", len(after))
	}
}
