package trace

import (
	"testing"
	"time"
)

// skewedNode simulates a node whose clock differs from the reference
// (coordinator) clock by a fixed offset and whose link to the
// coordinator has asymmetric one-way delays.
type skewedNode struct {
	id     int
	offset time.Duration // node clock = reference clock + offset
	up     time.Duration // coordinator -> node one-way delay
	down   time.Duration // node -> coordinator one-way delay
}

func (n skewedNode) local(ref time.Duration) int64 { return int64(ref + n.offset) }

// probe simulates one NTP exchange started at reference time ref and
// returns the four timestamps as the coordinator and node would observe
// them on their own clocks.
func (n skewedNode) probe(ref time.Duration) (t0, t1, t2, t3 int64) {
	t0 = int64(ref)
	t1 = n.local(ref + n.up)
	t2 = n.local(ref + n.up) // instant echo
	t3 = int64(ref + n.up + n.down)
	return
}

// TestClockOffsetEstimation: ±500ms skew with asymmetric link delay
// (2ms up, 10ms down) must be recovered to within the delay asymmetry
// bound (|error| <= (down-up)/2 = 4ms), three orders of magnitude below
// the skew.
func TestClockOffsetEstimation(t *testing.T) {
	nodes := []skewedNode{
		{id: 0, offset: 500 * time.Millisecond, up: 2 * time.Millisecond, down: 10 * time.Millisecond},
		{id: 1, offset: -500 * time.Millisecond, up: 10 * time.Millisecond, down: 2 * time.Millisecond},
		{id: 2, offset: 0, up: 5 * time.Millisecond, down: 5 * time.Millisecond},
	}
	a := NewAggregator(0)
	for _, n := range nodes {
		for i := 0; i < 3; i++ {
			ref := time.Duration(i) * time.Second
			t0, t1, t2, t3 := n.probe(ref)
			a.ObserveClock(n.id, t0, t1, t2, t3)
		}
	}
	for _, n := range nodes {
		est := a.Offset(n.id)
		if est.Samples == 0 {
			t.Fatalf("node %d: no offset samples", n.id)
		}
		errNanos := est.OffsetNanos - int64(n.offset)
		if errNanos < 0 {
			errNanos = -errNanos
		}
		bound := int64((n.down - n.up) / 2)
		if bound < 0 {
			bound = -bound
		}
		if errNanos > bound+int64(time.Millisecond) {
			t.Fatalf("node %d: offset error %v exceeds asymmetry bound %v",
				n.id, time.Duration(errNanos), time.Duration(bound))
		}
	}
}

// TestClockOffsetRejectsSlowProbe: a probe with a huge round trip must
// not replace an estimate from a fast probe.
func TestClockOffsetRejectsSlowProbe(t *testing.T) {
	a := NewAggregator(0)
	a.ObserveClock(0, 0, 1e6, 1e6, 2e6) // 2ms RTT, offset ~0
	a.ObserveClock(0, 0, 5e9, 5e9, 1e9) // 1s RTT (say, a GC pause) carrying garbage offset
	if est := a.Offset(0); est.OffsetNanos > int64(5*time.Millisecond) {
		t.Fatalf("slow probe replaced good offset: %+v", est)
	}
	if est := a.Offset(0); est.Samples != 2 {
		t.Fatalf("samples = %d, want 2", est.Samples)
	}
}

// digestFor builds a minimal round digest on a skewed node's clock:
// the node starts its round at reference time start, runs a gather that
// sees one frame from each listed arrival, and ends at reference end.
type arrival struct {
	from int
	at   time.Duration // reference-clock arrival time
}

func digestFor(n skewedNode, round int, start, end time.Duration, gatherStart time.Duration, arrivals []arrival) RoundDigest {
	d := RoundDigest{
		Node:           n.id,
		Round:          round,
		TraceID:        ID(n.id, round),
		StartUnixNanos: n.local(start),
		EndUnixNanos:   n.local(end),
	}
	d.Phases = append(d.Phases, SpanDigest{Name: SpanGather, StartUnixNanos: n.local(gatherStart), EndUnixNanos: n.local(end)})
	for _, ar := range arrivals {
		d.Recvs = append(d.Recvs, RecvDigest{From: ar.from, Bytes: 100, RecvUnixNanos: n.local(ar.at)})
	}
	return d
}

// TestMergeReconstructsOrderingUnderSkew: with ±500ms clock skew the raw
// timestamps order the rounds nonsensically; after offset correction the
// merged view must recover the true reference-time ordering
// (node2 started first, node1 ended last) and finger node 1 — whose
// frames arrived last everywhere — as the straggler.
func TestMergeReconstructsOrderingUnderSkew(t *testing.T) {
	nodes := []skewedNode{
		{id: 0, offset: 500 * time.Millisecond, up: 2 * time.Millisecond, down: 2 * time.Millisecond},
		{id: 1, offset: -500 * time.Millisecond, up: 2 * time.Millisecond, down: 2 * time.Millisecond},
		{id: 2, offset: 0, up: 2 * time.Millisecond, down: 2 * time.Millisecond},
	}
	a := NewAggregator(0)
	a.SetMembers([]int{0, 1, 2})
	for _, n := range nodes {
		t0, t1, t2, t3 := n.probe(0)
		a.ObserveClock(n.id, t0, t1, t2, t3)
	}

	// True reference-time story for round 4: node 2 starts at 10ms,
	// node 0 at 12ms, node 1 at 14ms. Node 1 is slow: its frames land at
	// 80ms while everyone else's land by 30ms, so rounds end at ~85ms on
	// nodes 0/2 and node 1 itself ends last at 90ms.
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	a.Add(digestFor(nodes[2], 4, ms(10), ms(85), ms(20), []arrival{{0, ms(28)}, {1, ms(80)}}))
	a.Add(digestFor(nodes[0], 4, ms(12), ms(85), ms(20), []arrival{{2, ms(30)}, {1, ms(80)}}))
	a.Add(digestFor(nodes[1], 4, ms(14), ms(90), ms(22), []arrival{{0, ms(28)}, {2, ms(30)}}))

	cr, ok := a.Round(4)
	if !ok {
		t.Fatal("merged round missing")
	}
	if cr.Completeness != 1 || len(cr.Missing) != 0 {
		t.Fatalf("completeness=%v missing=%v, want 1/none", cr.Completeness, cr.Missing)
	}

	// Reference-time ordering: starts must come back as node2 < node0 < node1.
	adjStart := map[int]int64{}
	for _, nr := range cr.Nodes {
		adjStart[nr.Digest.Node] = nr.Digest.StartUnixNanos - nr.OffsetNanos
	}
	if !(adjStart[2] < adjStart[0] && adjStart[0] < adjStart[1]) {
		t.Fatalf("adjusted start ordering wrong: %v", adjStart)
	}
	// Raw timestamps get it wrong (node1's -500ms skew makes it look earliest)
	// — this is what the correction exists to fix.
	raw1 := nodes[1].local(ms(14))
	raw2 := nodes[2].local(ms(10))
	if raw1 > raw2 {
		t.Fatal("test premise broken: raw clocks should misorder the rounds")
	}

	if cr.Straggler != 1 {
		t.Fatalf("straggler = %d, want 1 (blames: %+v)", cr.Straggler, cr.Blames)
	}
	// Node 1 delayed both receivers by ~50ms each.
	if cr.StragglerLagNanos < int64(80*time.Millisecond) {
		t.Fatalf("straggler lag = %v, want ~100ms total", time.Duration(cr.StragglerLagNanos))
	}
	if cr.StartUnixNanos > cr.EndUnixNanos {
		t.Fatalf("merged round interval inverted: [%d,%d]", cr.StartUnixNanos, cr.EndUnixNanos)
	}
	// Span must be ~80ms in reference time, not polluted by the ±500ms skew.
	if dur := cr.EndUnixNanos - cr.StartUnixNanos; dur > int64(200*time.Millisecond) {
		t.Fatalf("merged round duration %v is skew-polluted", time.Duration(dur))
	}
}

// TestMergeToleratesSilentNode: a member that never reports must show up
// as missing with reduced completeness — and the merge must still
// produce a straggler verdict from the nodes that did report. No hang,
// no block.
func TestMergeToleratesSilentNode(t *testing.T) {
	a := NewAggregator(0)
	a.SetMembers([]int{0, 1, 2, 3})
	n0 := skewedNode{id: 0}
	n1 := skewedNode{id: 1}
	n2 := skewedNode{id: 2}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	a.Add(digestFor(n0, 1, ms(0), ms(50), ms(10), []arrival{{1, ms(20)}, {2, ms(45)}}))
	a.Add(digestFor(n1, 1, ms(0), ms(50), ms(10), []arrival{{0, ms(20)}, {2, ms(45)}}))
	a.Add(digestFor(n2, 1, ms(0), ms(30), ms(10), []arrival{{0, ms(20)}, {1, ms(22)}}))

	cr, ok := a.Round(1)
	if !ok {
		t.Fatal("merge blocked on silent node")
	}
	if cr.Completeness != 0.75 {
		t.Fatalf("completeness = %v, want 0.75", cr.Completeness)
	}
	if len(cr.Missing) != 1 || cr.Missing[0] != 3 {
		t.Fatalf("missing = %v, want [3]", cr.Missing)
	}
	if cr.Straggler != 2 {
		t.Fatalf("straggler = %d, want 2", cr.Straggler)
	}
	pinJSON(t, cr, `{"round":1,"nodes":[`+
		`{"digest":{"node":0,"round":1,"trace_id":1,"start":0,"end":50000000,`+
		`"phases":[{"name":"gather","start":10000000,"end":50000000}],`+
		`"recvs":[{"from":1,"bytes":100,"trace_id":0,"send":0,"recv":20000000},{"from":2,"bytes":100,"trace_id":0,"send":0,"recv":45000000}],`+
		`"frames_sent":0,"bytes_sent":0,"bytes_full_send":0,"params_sent":0,"params_total":0},"offset":0},`+
		`{"digest":{"node":1,"round":1,"trace_id":4294967297,"start":0,"end":50000000,`+
		`"phases":[{"name":"gather","start":10000000,"end":50000000}],`+
		`"recvs":[{"from":0,"bytes":100,"trace_id":0,"send":0,"recv":20000000},{"from":2,"bytes":100,"trace_id":0,"send":0,"recv":45000000}],`+
		`"frames_sent":0,"bytes_sent":0,"bytes_full_send":0,"params_sent":0,"params_total":0},"offset":0},`+
		`{"digest":{"node":2,"round":1,"trace_id":8589934593,"start":0,"end":30000000,`+
		`"phases":[{"name":"gather","start":10000000,"end":30000000}],`+
		`"recvs":[{"from":0,"bytes":100,"trace_id":0,"send":0,"recv":20000000},{"from":1,"bytes":100,"trace_id":0,"send":0,"recv":22000000}],`+
		`"frames_sent":0,"bytes_sent":0,"bytes_full_send":0,"params_sent":0,"params_total":0},"offset":0}],`+
		`"missing":[3],"completeness":0.75,"start":0,"end":50000000,"straggler":2,"straggler_lag":50000000,`+
		`"blames":[{"node":2,"lag":50000000},{"node":1,"lag":2000000}],`+
		`"critical_path":[{"node":0,"span":"gather","start":10000000,"end":50000000}],"bytes_sent":0,"bytes_full_send":0}`)
}

func TestAggregatorBytesAccounting(t *testing.T) {
	a := NewAggregator(4)
	a.Add(RoundDigest{Node: 0, Round: 0, EndUnixNanos: 1, BytesSent: 100, BytesFullSend: 1000})
	a.Add(RoundDigest{Node: 1, Round: 0, EndUnixNanos: 1, BytesSent: 50, BytesFullSend: 1000})
	// Retransmit of node 0's digest must replace, not double count.
	a.Add(RoundDigest{Node: 0, Round: 0, EndUnixNanos: 1, BytesSent: 100, BytesFullSend: 1000})
	sent, full := a.CumulativeBytes()
	if sent != 150 || full != 2000 {
		t.Fatalf("cumulative = %d/%d, want 150/2000", sent, full)
	}
	cr, _ := a.Round(0)
	if cr.BytesSent != 150 || cr.BytesFullSend != 2000 || cr.BytesSaved() != 1850 {
		t.Fatalf("round bytes = %+v", cr)
	}

	// Retention: round 10 with keep=4 evicts round 0; a late round-0 add
	// is refused but cumulative counters keep the evicted contribution.
	a.Add(RoundDigest{Node: 0, Round: 10, EndUnixNanos: 1, BytesSent: 1, BytesFullSend: 2})
	if _, ok := a.Round(0); ok {
		t.Fatal("round 0 survived retention")
	}
	if a.Add(RoundDigest{Node: 2, Round: 0, EndUnixNanos: 1}) {
		t.Fatal("stale add accepted")
	}
	sent, full = a.CumulativeBytes()
	if sent != 151 || full != 2002 {
		t.Fatalf("cumulative after eviction = %d/%d, want 151/2002", sent, full)
	}
}

func TestNilAggregatorSafe(t *testing.T) {
	var a *Aggregator
	a.ObserveClock(0, 0, 0, 0, 0)
	a.SetMembers([]int{1})
	if a.Add(RoundDigest{}) {
		t.Fatal("nil aggregator accepted a digest")
	}
	if a.Rounds() != nil || a.Latest() != -1 {
		t.Fatal("nil aggregator has rounds")
	}
	if _, ok := a.Round(0); ok {
		t.Fatal("nil aggregator returned a round")
	}
	if a.Completeness(0) != 0 {
		t.Fatal("nil aggregator completeness != 0")
	}
}

func TestCriticalPathCrossNode(t *testing.T) {
	a := NewAggregator(0)
	a.SetMembers([]int{0, 1})
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	slow := RoundDigest{Node: 1, Round: 2, StartUnixNanos: int64(ms(0)), EndUnixNanos: int64(ms(60))}
	slow.Phases = append(slow.Phases,
		SpanDigest{Name: SpanBuild, StartUnixNanos: int64(ms(0)), EndUnixNanos: int64(ms(20))},
		SpanDigest{Name: SpanEncode, StartUnixNanos: int64(ms(20)), EndUnixNanos: int64(ms(25))},
		SpanDigest{Name: SpanBroadcast, StartUnixNanos: int64(ms(25)), EndUnixNanos: int64(ms(40))},
	)
	fast := digestFor(skewedNode{id: 0}, 2, ms(0), ms(70), ms(5), []arrival{{1, ms(42)}})
	fast.Phases = append(fast.Phases,
		SpanDigest{Name: SpanDecode, StartUnixNanos: int64(ms(45)), EndUnixNanos: int64(ms(50))},
		SpanDigest{Name: SpanIntegrate, StartUnixNanos: int64(ms(50)), EndUnixNanos: int64(ms(60))},
	)
	a.Add(slow)
	a.Add(fast)
	cr, ok := a.Round(2)
	if !ok {
		t.Fatal("round missing")
	}
	if len(cr.CriticalPath) == 0 {
		t.Fatal("no critical path")
	}
	// Path must start on the blocking sender (node 1) and end on the
	// receiver's integrate.
	if cr.CriticalPath[0].Node != 1 || cr.CriticalPath[0].Span != SpanBuild {
		t.Fatalf("path head = %+v, want node 1 build", cr.CriticalPath[0])
	}
	tail := cr.CriticalPath[len(cr.CriticalPath)-1]
	if tail.Node != 0 || tail.Span != SpanIntegrate {
		t.Fatalf("path tail = %+v, want node 0 integrate", tail)
	}
	// The receiver's gather-wait must sit on the path between the sender's
	// send side and the receiver's decode/integrate tail.
	var sawGather bool
	for _, s := range cr.CriticalPath {
		if s.Node == 0 && s.Span == SpanGather {
			sawGather = true
		}
	}
	if !sawGather {
		t.Fatalf("critical path missing receiver gather: %+v", cr.CriticalPath)
	}
}
