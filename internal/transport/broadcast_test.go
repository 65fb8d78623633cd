package transport

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// recvFrom waits on p for sender's frame of the given round and returns
// a copy (nil on timeout); frames from other neighbors are not waited for.
func recvFrom(p *Peer, sender, round int) []byte {
	var got []byte
	p.GatherStream(round, 5*time.Second, func(from int, frame []byte) bool {
		if from != sender {
			return true
		}
		got = append([]byte(nil), frame...)
		return false
	})
	return got
}

// gatherAll runs recvFrom on every peer but the sender concurrently and
// returns what each received, indexed by peer id.
func gatherAll(peers []*Peer, sender, round int) [][]byte {
	got := make([][]byte, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		if i == sender {
			continue
		}
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			got[i] = recvFrom(p, sender, round)
		}(i, p)
	}
	wg.Wait()
	return got
}

// TestBroadcastPaysSlowestLink: with the same delay on four links, a
// broadcast reaches every neighbor after about one delay, not four, and
// the delays do not hold up the broadcasting caller.
func TestBroadcastPaysSlowestLink(t *testing.T) {
	const delay = 60 * time.Millisecond
	peers := startPeers(t, 5)
	faults := NewFaultSet()
	for j := 1; j < 5; j++ {
		faults.Add(FaultRule{Peer: j, Round: 0, Action: FaultDelay, Delay: delay})
	}
	peers[0].SetFaults(faults)

	start := time.Now()
	if err := peers[0].Broadcast(0, []byte("wan")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Errorf("broadcast over four %v links blocked its caller for %v, want < %v", delay, elapsed, delay)
	}
	// The round loop charges a round the FramesSent delta across its
	// Broadcast: held-back frames must already be counted.
	if got := peers[0].FramesSent(); got != 4 {
		t.Errorf("FramesSent after the broadcast = %d, want 4", got)
	}
	got := gatherAll(peers, 0, 0)
	elapsed := time.Since(start)
	for i := 1; i < len(got); i++ {
		if string(got[i]) != "wan" {
			t.Errorf("peer %d gathered %q, want the broadcast frame", i, got[i])
		}
	}
	if elapsed < delay || elapsed >= 3*delay {
		t.Errorf("frames over four %v links all arrived after %v, want in [%v, %v)", delay, elapsed, delay, 3*delay)
	}
}

// TestBroadcastBufferReusableOnReturn: the caller may overwrite the
// frame as soon as Broadcast returns — even on a link whose write is
// still held back by a delay.
func TestBroadcastBufferReusableOnReturn(t *testing.T) {
	peers := startPeers(t, 4)
	peers[0].SetFaults(NewFaultSet().Add(
		FaultRule{Peer: 3, Round: 0, Action: FaultDelay, Delay: 20 * time.Millisecond}))
	frame := bytes.Repeat([]byte("original"), 1<<13)
	want := append([]byte(nil), frame...)
	if err := peers[0].Broadcast(0, frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'X'
	}
	for i, got := range gatherAll(peers, 0, 0) {
		if i != 0 && !bytes.Equal(got, want) {
			t.Errorf("peer %d received a frame that differs from the one broadcast", i)
		}
	}
}

// TestBroadcastErrorIsLowestFailingNeighbor: with two links reset, the
// error names the lower-id one, and the healthy links still deliver.
func TestBroadcastErrorIsLowestFailingNeighbor(t *testing.T) {
	peers := startPeers(t, 5)
	peers[0].SetFaults(NewFaultSet().
		Add(FaultRule{Peer: 4, Round: 0, Action: FaultReset}).
		Add(FaultRule{Peer: 2, Round: 0, Action: FaultReset}))

	err := peers[0].Broadcast(0, []byte("partial"))
	if err == nil {
		t.Fatal("broadcast over two reset links succeeded, want error")
	}
	if !strings.Contains(err.Error(), "link 0→2 ") {
		t.Errorf("error = %v, want the reset of link 0→2", err)
	}
	for _, i := range []int{1, 3} {
		if got := recvFrom(peers[i], 0, 0); string(got) != "partial" {
			t.Errorf("healthy peer %d gathered %q, want the broadcast frame", i, got)
		}
	}
}
