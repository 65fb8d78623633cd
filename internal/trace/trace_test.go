package trace

import (
	"encoding/json"
	"testing"
	"time"
)

func ts(n int64) time.Time { return time.Unix(0, n) }

func TestBlockRoundTrip(t *testing.T) {
	c := Context{TraceID: ID(7, 42), Node: 7, Round: 42, SendUnixNanos: 123456789}
	var buf [BlockBytes]byte
	PutBlock(buf[:], c)
	got, err := ParseBlock(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}
	if _, err := ParseBlock(buf[:BlockBytes-1]); err == nil {
		t.Fatal("ParseBlock accepted a short block")
	}
}

func TestTraceIDUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for node := 0; node < 8; node++ {
		for round := 0; round < 8; round++ {
			id := ID(node, round)
			if seen[id] {
				t.Fatalf("duplicate trace id for node %d round %d", node, round)
			}
			seen[id] = true
		}
	}
}

func TestTracerDigest(t *testing.T) {
	tr := New(Config{Node: 3, Rounds: 4})
	tr.StartRound(5, ts(100))
	tr.Phase(5, PhaseBuild, ts(100), ts(110))
	tr.Phase(5, PhaseGather, ts(120), ts(150))
	tr.Span(5, SpanGrad, ts(101), ts(105))
	tr.Recv(5, 1, 64, Context{TraceID: ID(1, 5), Node: 1, Round: 5, SendUnixNanos: 118}, ts(130))
	tr.Sent(5, 2, 200, 1000, 10, 100)
	tr.EndRound(5, ts(160))

	d, ok := tr.Digest(5)
	if !ok {
		t.Fatal("Digest(5) missing")
	}
	if d.Node != 3 || d.Round != 5 || d.TraceID != ID(3, 5) {
		t.Fatalf("digest identity wrong: %+v", d)
	}
	if d.StartUnixNanos != 100 || d.EndUnixNanos != 160 {
		t.Fatalf("root span = [%d,%d], want [100,160]", d.StartUnixNanos, d.EndUnixNanos)
	}
	if len(d.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(d.Phases))
	}
	if g, ok := d.Phase(SpanGather); !ok || g.StartUnixNanos != 120 || g.EndUnixNanos != 150 {
		t.Fatalf("gather phase = %+v ok=%v", g, ok)
	}
	if len(d.Spans) != 1 || d.Spans[0].Name != SpanGrad {
		t.Fatalf("spans = %+v", d.Spans)
	}
	if len(d.Recvs) != 1 || d.Recvs[0].From != 1 || d.Recvs[0].RecvUnixNanos != 130 {
		t.Fatalf("recvs = %+v", d.Recvs)
	}
	if d.BytesSent != 200 || d.BytesFullSend != 1000 || d.FramesSent != 2 {
		t.Fatalf("byte accounting wrong: %+v", d)
	}
	if d.ParamsSent != 10 || d.ParamsTotal != 100 {
		t.Fatalf("param accounting wrong: %+v", d)
	}
	pinJSON(t, d, `{"node":3,"round":5,"trace_id":12884901893,"start":100,"end":160,`+
		`"phases":[{"name":"build","start":100,"end":110},{"name":"gather","start":120,"end":150}],`+
		`"spans":[{"name":"grad","start":101,"end":105}],`+
		`"recvs":[{"from":1,"bytes":64,"trace_id":4294967301,"send":118,"recv":130}],`+
		`"frames_sent":2,"bytes_sent":200,"bytes_full_send":1000,"params_sent":10,"params_total":100}`)
}

// pinJSON fails unless v marshals to exactly want. Digests cross process
// boundaries (heartbeats, /trace), so their JSON is a wire contract: a
// renamed field or tag changes what an older coordinator or snaptrace
// reads.
func pinJSON(t *testing.T, v any, want string) {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("wire JSON changed:\n got %s\nwant %s", got, want)
	}
}

// TestTracerRingReuse: a round that laps the ring must fully reset the
// slot it lands in — nothing from the evicted round may leak through.
func TestTracerRingReuse(t *testing.T) {
	tr := New(Config{Node: 0, Rounds: 2})
	tr.StartRound(0, ts(10))
	tr.Recv(0, 1, 9, Context{}, ts(11))
	tr.Span(0, SpanGrad, ts(10), ts(12))
	tr.Sent(0, 1, 50, 500, 1, 10)
	tr.EndRound(0, ts(20))

	// Round 2 lands in round 0's slot.
	tr.StartRound(2, ts(100))
	tr.EndRound(2, ts(110))
	d, ok := tr.Digest(2)
	if !ok {
		t.Fatal("Digest(2) missing")
	}
	if len(d.Recvs) != 0 || len(d.Spans) != 0 || d.BytesSent != 0 || d.FramesSent != 0 {
		t.Fatalf("evicted round leaked into new slot: %+v", d)
	}
	if _, ok := tr.Digest(0); ok {
		t.Fatal("Digest(0) survived eviction")
	}
}

// TestTracerOutOfOrderRecv: a frame for round r+1 can arrive (on the
// transport read loop) before the round loop calls StartRound(r+1). The
// later StartRound must not wipe the recorded receive, and a stale write
// for an already-evicted round must be dropped, not resurrect the round.
func TestTracerOutOfOrderRecv(t *testing.T) {
	tr := New(Config{Node: 0, Rounds: 4})
	tr.Recv(3, 2, 77, Context{Node: 2, Round: 3, SendUnixNanos: 40}, ts(50))
	tr.StartRound(3, ts(60))
	tr.EndRound(3, ts(70))
	d, ok := tr.Digest(3)
	if !ok || len(d.Recvs) != 1 || d.Recvs[0].From != 2 {
		t.Fatalf("early recv lost: ok=%v digest=%+v", ok, d)
	}

	// Round 7 claims round 3's slot; a late round-3 write must be dropped.
	tr.StartRound(7, ts(100))
	tr.Recv(3, 1, 5, Context{}, ts(101))
	tr.EndRound(7, ts(110))
	d7, ok := tr.Digest(7)
	if !ok || len(d7.Recvs) != 0 {
		t.Fatalf("stale recv clobbered newer round: ok=%v digest=%+v", ok, d7)
	}
	if _, ok := tr.Digest(3); ok {
		t.Fatal("stale write resurrected an evicted round")
	}
}

func TestTracerCapacityDrops(t *testing.T) {
	tr := New(Config{Node: 0, Rounds: 2, Recvs: 1, Spans: 1})
	tr.StartRound(0, ts(1))
	tr.Recv(0, 1, 1, Context{}, ts(2))
	tr.Recv(0, 2, 1, Context{}, ts(3))
	tr.Span(0, SpanGrad, ts(1), ts(2))
	tr.Span(0, SpanMix, ts(2), ts(3))
	tr.EndRound(0, ts(4))
	d, _ := tr.Digest(0)
	if len(d.Recvs) != 1 || d.DroppedRecvs != 1 {
		t.Fatalf("recvs=%d dropped=%d, want 1/1", len(d.Recvs), d.DroppedRecvs)
	}
	if len(d.Spans) != 1 || d.DroppedSpans != 1 {
		t.Fatalf("spans=%d dropped=%d, want 1/1", len(d.Spans), d.DroppedSpans)
	}
	pinJSON(t, d, `{"node":0,"round":0,"trace_id":0,"start":1,"end":4,`+
		`"spans":[{"name":"grad","start":1,"end":2}],`+
		`"recvs":[{"from":1,"bytes":1,"trace_id":0,"send":0,"recv":2}],`+
		`"frames_sent":0,"bytes_sent":0,"bytes_full_send":0,"params_sent":0,"params_total":0,`+
		`"dropped_spans":1,"dropped_recvs":1}`)
}

func TestDigestsSince(t *testing.T) {
	tr := New(Config{Node: 0, Rounds: 8})
	for r := 0; r < 5; r++ {
		tr.StartRound(r, ts(int64(r*10)))
		if r != 3 { // round 3 never completes
			tr.EndRound(r, ts(int64(r*10+5)))
		}
	}
	ds := tr.DigestsSince(1, 100)
	want := []int{1, 2, 4}
	if len(ds) != len(want) {
		t.Fatalf("got %d digests, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d.Round != want[i] {
			t.Fatalf("digest %d is round %d, want %d", i, d.Round, want[i])
		}
	}
	if got := tr.DigestsSince(0, 2); len(got) != 2 || got[0].Round != 0 || got[1].Round != 1 {
		t.Fatalf("max cap wrong: %+v", got)
	}
}

// TestNilTracerSafe: every method must be a no-op on a nil tracer, so
// call sites never need nil checks.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Node() != -1 {
		t.Fatal("nil tracer node != -1")
	}
	tr.StartRound(0, ts(1))
	tr.EndRound(0, ts(2))
	tr.Phase(0, PhaseBuild, ts(1), ts(2))
	tr.Span(0, SpanGrad, ts(1), ts(2))
	tr.Recv(0, 1, 1, Context{}, ts(1))
	tr.Sent(0, 1, 1, 1, 1, 1)
	if _, ok := tr.Digest(0); ok {
		t.Fatal("nil tracer returned a digest")
	}
	if ds := tr.DigestsSince(0, 10); ds != nil {
		t.Fatal("nil tracer returned digests")
	}
}

// TestTracerRoundAllocFree is the tracing half of the repo's
// zero-allocation round budget: once constructed, recording a full
// steady-state round (start, all phases, engine sub-spans, neighbor
// recvs, send accounting, end) must not allocate.
func TestTracerRoundAllocFree(t *testing.T) {
	tr := New(Config{Node: 1, Rounds: 16})
	now := time.Now()
	ctx := Context{TraceID: ID(2, 0), Node: 2, Round: 0, SendUnixNanos: now.UnixNano()}
	round := 0
	iterate := func() {
		tr.StartRound(round, now)
		tr.Phase(round, PhaseBuild, now, now)
		tr.Phase(round, PhaseEncode, now, now)
		tr.Phase(round, PhaseBroadcast, now, now)
		tr.Span(round, SpanGrad, now, now)
		tr.Span(round, SpanMix, now, now)
		for from := 0; from < 4; from++ {
			tr.Recv(round, from, 128, ctx, now)
		}
		tr.Phase(round, PhaseGather, now, now)
		tr.Phase(round, PhaseDecode, now, now)
		tr.Phase(round, PhaseIntegrate, now, now)
		tr.Sent(round, 4, 512, 4096, 16, 256)
		tr.EndRound(round, now)
		round++
	}
	for i := 0; i < 20; i++ {
		iterate()
	}
	if avg := testing.AllocsPerRun(100, iterate); avg != 0 {
		t.Errorf("steady-state traced round allocated %v times per run, want 0", avg)
	}
}
