package transport

// frameFree recycles receive-side frame buffers. The TCP read loop
// allocates one buffer per incoming frame; under a steady round rate
// that is one garbage buffer per neighbor per round. Consumers that
// finish with a frame hand it back via RecycleFrame and the read loop
// reuses it for a later frame of any size that fits.
//
// A buffered channel rather than a sync.Pool: a slice travels through it
// by value, so recycling allocates nothing (a sync.Pool holds interfaces,
// and boxing a slice header costs an allocation per frame). Retained
// memory is bounded by the capacity: at most cap(frameFree) buffers, each
// one a frame this process already had in flight. A node receives one
// frame per neighbor per round, so 64 holds a round of frames for a
// whole in-process cluster of, say, 16 nodes of degree 4, and many rounds
// for a process hosting one node; a recycle that finds the list full
// drops the buffer for the collector, so the size bounds memory, not
// correctness.
var frameFree = make(chan []byte, 64)

// getFrameBuf returns a length-n buffer, reusing a recycled backing array
// when one with enough capacity is available.
func getFrameBuf(n int) []byte {
	select {
	case b := <-frameFree:
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this frame; let it be collected rather than
		// cycling undersized buffers through the list forever.
	default:
	}
	return make([]byte, n)
}

// RecycleFrame returns a frame buffer received from Peer.GatherStream to the
// receive pool. Strictly optional: callers that retain frames simply
// don't recycle them. After recycling, the caller must not touch the
// slice again.
func RecycleFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case frameFree <- b:
	default:
	}
}
