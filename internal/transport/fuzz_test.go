package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/snapml/snap/internal/trace"
)

// wireFrame encodes one frame as a neighbor puts it on the wire: the
// 8-byte header, then the trace block when ctx is non-nil, then payload.
func wireFrame(round int, ctx *trace.Context, payload []byte) []byte {
	size, flag := len(payload), uint32(0)
	if ctx != nil {
		size, flag = size+trace.BlockBytes, frameFlagTrace
	}
	b := binary.BigEndian.AppendUint32(nil, uint32(size))
	b = binary.BigEndian.AppendUint32(b, uint32(round)|flag)
	if ctx != nil {
		var block [trace.BlockBytes]byte
		trace.PutBlock(block[:], *ctx)
		b = append(b, block[:]...)
	}
	return append(b, payload...)
}

// referenceFrames parses a byte stream the way the frame format defines
// it: the frames it carries in full, and whether the parse stops at a
// malformed header (as opposed to running out of bytes).
func referenceFrames(data []byte) (frames []inFrame, malformed bool) {
	for len(data) >= 8 {
		size := binary.BigEndian.Uint32(data[:4])
		raw := binary.BigEndian.Uint32(data[4:8])
		traced := raw&frameFlagTrace != 0
		body := data[8:]
		switch {
		case size > maxFrameBytes, traced && size < trace.BlockBytes:
			return frames, true
		case uint64(len(body)) < uint64(size):
			return frames, false
		}
		payload := body[:size]
		if traced {
			if _, err := trace.ParseBlock(payload); err != nil {
				return frames, true
			}
			payload = payload[trace.BlockBytes:]
		}
		frames = append(frames, inFrame{from: 1, round: int(raw &^ frameFlagTrace), frame: payload})
		data = body[size:]
	}
	return frames, false
}

// FuzzReadLoop feeds arbitrary bytes to a peer's read loop over an
// in-memory connection registered as neighbor 1. The read loop must never
// panic; it must deliver exactly the frames whose declared bytes all
// arrived, in order; and it must evict the connection by itself at a
// malformed header, or at end of stream otherwise.
func FuzzReadLoop(f *testing.F) {
	ctx := &trace.Context{TraceID: trace.ID(1, 4), Node: 1, Round: 4, SendUnixNanos: 1}
	plain, traced := wireFrame(3, nil, []byte("plain")), wireFrame(4, ctx, []byte("traced"))
	oversize := binary.BigEndian.AppendUint32(nil, maxFrameBytes+1)
	tooSmall := binary.BigEndian.AppendUint32(nil, trace.BlockBytes-1)
	for _, seed := range [][]byte{
		plain,
		traced,
		append(append([]byte{}, plain...), traced...),
		wireFrame(0, nil, nil),
		binary.BigEndian.AppendUint32(oversize, 0),
		append(binary.BigEndian.AppendUint32(tooSmall, frameFlagTrace), make([]byte, trace.BlockBytes-1)...),
		append(append([]byte{}, plain...), traced[:5]...), // truncated header
		traced[:len(traced)-1],        // truncated payload
		traced[:8+trace.BlockBytes/2], // truncated trace block
	} {
		f.Add(seed)
	}

	// Neighbor 1 is below the peer's id, so an evicted link is never
	// re-dialed: the next input gets a fresh connection.
	p, err := NewPeer(5, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { p.Close() })
	p.SetTracer(trace.New(trace.Config{Node: 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, malformed := referenceFrames(data)
		server, client := net.Pipe()
		defer client.Close()
		p.addConn(1, server)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			client.Write(data) // fails once the read loop drops the conn
			if !malformed {
				client.Close() // end of stream
			}
		}()

		var got []inFrame
		poll := time.NewTicker(time.Millisecond)
		defer poll.Stop()
		deadline := time.Now().Add(5 * time.Second)
		for p.Healthy(1) {
			select {
			case m := <-p.inbox:
				got = append(got, m)
			case <-poll.C:
				if time.Now().After(deadline) {
					t.Fatalf("connection not evicted (malformed=%v, %d frames delivered)", malformed, len(got))
				}
			}
		}
		<-wrote
		// Every delivery happened before the eviction observed above.
		for drained := false; !drained; {
			select {
			case m := <-p.inbox:
				got = append(got, m)
			default:
				drained = true
			}
		}

		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].from != want[i].from || got[i].round != want[i].round || !bytes.Equal(got[i].frame, want[i].frame) {
				t.Fatalf("frame %d: delivered from %d round %d %q, want from %d round %d %q",
					i, got[i].from, got[i].round, got[i].frame, want[i].from, want[i].round, want[i].frame)
			}
		}
	})
}
