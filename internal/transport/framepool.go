package transport

import "sync"

// framePool recycles receive-side frame buffers. The TCP read loop
// allocates one buffer per incoming frame; under a steady round rate
// that is one garbage buffer per neighbor per round. Consumers that
// finish with a frame hand it back via RecycleFrame and the read loop
// reuses it for a later frame of any size that fits.
var framePool = sync.Pool{}

// getFrameBuf returns a length-n buffer, reusing a pooled backing array
// when one with enough capacity is available.
func getFrameBuf(n int) []byte {
	if v := framePool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this frame; let it be collected rather than
		// cycling undersized buffers through the pool forever.
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
	framePool.Put(&b)
}
