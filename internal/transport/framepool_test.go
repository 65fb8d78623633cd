package transport

import "testing"

// drainFrameFree empties the process-wide free list so a test starts from
// a known state (earlier tests' read loops may have left buffers in it).
func drainFrameFree() {
	for {
		select {
		case <-frameFree:
		default:
			return
		}
	}
}

// TestFrameRecycleAllocFree pins the read loop's steady state: a frame
// buffer that is recycled and fetched again costs no allocation, so the
// TCP round's receive side is allocation-free once the list is warm.
func TestFrameRecycleAllocFree(t *testing.T) {
	drainFrameFree()
	RecycleFrame(make([]byte, 4096))
	if n := testing.AllocsPerRun(100, func() {
		RecycleFrame(getFrameBuf(4096))
	}); n != 0 {
		t.Errorf("get/recycle cycle allocates %v times, want 0", n)
	}
}

// TestFrameRecycleReusesFittingBuffers: a recycled buffer backs the next
// frame that fits, an undersized one is dropped rather than returned, and
// the list never holds more than its capacity.
func TestFrameRecycleReusesFittingBuffers(t *testing.T) {
	drainFrameFree()
	big := make([]byte, 256)
	RecycleFrame(big)
	if got := getFrameBuf(100); len(got) != 100 || &got[0] != &big[0] {
		t.Fatalf("fitting frame did not reuse the recycled buffer (len %d)", len(got))
	}
	RecycleFrame(make([]byte, 16))
	if got := getFrameBuf(100); len(got) != 100 || cap(got) < 100 {
		t.Fatalf("undersized buffer returned: len %d cap %d", len(got), cap(got))
	}
	if len(frameFree) != 0 {
		t.Fatalf("undersized buffer kept: %d buffers in the list", len(frameFree))
	}
	RecycleFrame(nil)
	for i := 0; i < 2*cap(frameFree); i++ {
		RecycleFrame(make([]byte, 8))
	}
	if len(frameFree) != cap(frameFree) {
		t.Fatalf("%d buffers retained, want the capacity %d", len(frameFree), cap(frameFree))
	}
	drainFrameFree()
}
