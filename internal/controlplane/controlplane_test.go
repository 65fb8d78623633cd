package controlplane

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/trace"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func startCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	cfg.Logf = t.Logf
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func joinClient(t *testing.T, coord *Coordinator, advertise string) *Client {
	t.Helper()
	c, err := Join(ClientConfig{
		Coordinator:    coord.Addr(),
		Advertise:      advertise,
		JoinWait:       5 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("Join(%s): %v", advertise, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// joinAll joins n clients concurrently: with MinMembers = n every Join
// blocks until the last founder arrives, so they must overlap.
func joinAll(t *testing.T, coord *Coordinator, addrs []string) []*Client {
	t.Helper()
	clients := make([]*Client, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			c, err := Join(ClientConfig{
				Coordinator:    coord.Addr(),
				Advertise:      addr,
				JoinWait:       5 * time.Second,
				HeartbeatEvery: 20 * time.Millisecond,
			})
			clients[i], errs[i] = c, err
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Join(%s): %v", addrs[i], err)
		}
		c := clients[i]
		t.Cleanup(func() { c.Close() })
	}
	return clients
}

// checkEpoch validates the structural invariants every epoch must hold:
// members sorted by id, square row block, stochastic symmetric rows, and
// a symmetric neighbor relation consistent with nonzero weights.
func checkEpoch(t *testing.T, ep *Epoch) {
	t.Helper()
	n := len(ep.Members)
	byID := make(map[int]int, n) // id -> index
	for i, m := range ep.Members {
		if i > 0 && ep.Members[i-1].ID >= m.ID {
			t.Errorf("epoch %d: members not sorted by id at %d", ep.ID, i)
		}
		if len(m.Row) != n {
			t.Fatalf("epoch %d: member %d row has %d entries, want %d", ep.ID, m.ID, len(m.Row), n)
		}
		byID[m.ID] = i
	}
	for i, m := range ep.Members {
		sum := 0.0
		for _, w := range m.Row {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("epoch %d: member %d row sums to %g", ep.ID, m.ID, sum)
		}
		for _, p := range m.Peers {
			j, ok := byID[p]
			if !ok {
				t.Fatalf("epoch %d: member %d lists unknown peer %d", ep.ID, m.ID, p)
			}
			back := false
			for _, q := range ep.Members[j].Peers {
				if q == m.ID {
					back = true
				}
			}
			if !back {
				t.Errorf("epoch %d: neighbor relation %d->%d not symmetric", ep.ID, m.ID, p)
			}
			if math.Abs(m.Row[j]-ep.Members[j].Row[i]) > 1e-9 {
				t.Errorf("epoch %d: W not symmetric between %d and %d", ep.ID, m.ID, p)
			}
		}
	}
}

func TestQuorumBootstrap(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{MinMembers: 3})
	clients := joinAll(t, coord, []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"})

	ids := map[int]bool{}
	for _, c := range clients {
		ids[c.ID()] = true
		ep := c.Latest()
		if ep == nil {
			t.Fatal("Join returned without an epoch")
		}
		if ep.ID != 1 {
			t.Errorf("first epoch id = %d, want 1", ep.ID)
		}
		if len(ep.Members) != 3 {
			t.Errorf("first epoch has %d members, want 3", len(ep.Members))
		}
		checkEpoch(t, ep)
	}
	if len(ids) != 3 {
		t.Errorf("ids not unique: %v", ids)
	}
	if got := coord.Epoch(); got != 1 {
		t.Errorf("coordinator epoch = %d, want 1", got)
	}
}

func TestJoinAfterQuorumPublishesEpoch(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{MinMembers: 2, AttachDegree: 2})
	founders := joinAll(t, coord, []string{"10.0.0.1:9000", "10.0.0.2:9000"})

	joiner := joinClient(t, coord, "10.0.0.3:9000")
	ep := joiner.Latest()
	if ep.ID != 2 {
		t.Fatalf("joiner got epoch %d, want 2", ep.ID)
	}
	if len(ep.Members) != 3 {
		t.Fatalf("epoch 2 has %d members, want 3", len(ep.Members))
	}
	checkEpoch(t, ep)
	// AttachDegree=2 with two existing members: the joiner links to both.
	self := ep.Member(joiner.ID())
	if len(self.Peers) != 2 {
		t.Errorf("joiner has %d peers, want 2", len(self.Peers))
	}

	// The founders receive the same epoch by push.
	for _, c := range founders {
		c := c
		waitFor(t, "founder to receive epoch 2", func() bool {
			return c.Latest().ID == 2
		})
	}

	// PlanFor projects the epoch into node-id space.
	plan, err := ep.PlanFor(joiner.ID())
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	if plan == nil || plan.Epoch != 2 {
		t.Fatalf("plan = %+v, want epoch 2", plan)
	}
	if len(plan.Addrs) != len(plan.Neighbors) {
		t.Errorf("plan addrs %v do not cover neighbors %v", plan.Addrs, plan.Neighbors)
	}
	sum := 0.0
	for _, w := range plan.WRow {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("plan WRow sums to %g", sum)
	}
}

func TestLeaveRejectedWhenDisconnecting(t *testing.T) {
	// AttachDegree=1 builds a tree: 1-0, 2-0 (vertex 0 is the cut vertex).
	coord := startCoordinator(t, CoordinatorConfig{MinMembers: 1, AttachDegree: 1})
	hub := joinClient(t, coord, "10.0.0.1:9000")
	joinClient(t, coord, "10.0.0.2:9000")
	leaf := joinClient(t, coord, "10.0.0.3:9000")

	if err := hub.Leave(2 * time.Second); err == nil {
		t.Fatal("leave of the cut vertex was allowed; topology would disconnect")
	}
	// The rejected leaver is still a member and still receives epochs.
	if got := len(coord.Members()); got != 3 {
		t.Fatalf("after rejected leave: %d members, want 3", got)
	}

	epochBefore := coord.Epoch()
	if err := leaf.Leave(2 * time.Second); err != nil {
		t.Fatalf("leave of a leaf: %v", err)
	}
	waitFor(t, "membership to shrink", func() bool { return len(coord.Members()) == 2 })
	waitFor(t, "survivors to see the post-leave epoch", func() bool {
		return hub.Latest().ID > epochBefore
	})
	ep := hub.Latest()
	if len(ep.Members) != 2 {
		t.Fatalf("post-leave epoch has %d members, want 2", len(ep.Members))
	}
	if ep.Member(leaf.ID()) != nil {
		t.Error("departed member still listed in the epoch")
	}
	checkEpoch(t, ep)
}

func TestHeartbeatEviction(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{
		MinMembers:       2,
		HeartbeatTimeout: 250 * time.Millisecond,
	})
	survivor := joinAll(t, coord, []string{"10.0.0.1:9000", "10.0.0.2:9000"})[0]
	ghost := joinClient(t, coord, "10.0.0.3:9000")
	waitFor(t, "three members", func() bool { return len(coord.Members()) == 3 })

	// Kill the ghost's control connection without a graceful leave.
	ghost.Close()
	waitFor(t, "eviction", func() bool { return len(coord.Members()) == 2 })
	waitFor(t, "survivor to see the post-eviction epoch", func() bool {
		return survivor.Latest().Member(ghost.ID()) == nil
	})
	checkEpoch(t, survivor.Latest())
}

func TestIDsAreNeverReused(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{MinMembers: 1})
	a := joinClient(t, coord, "10.0.0.1:9000")
	b := joinClient(t, coord, "10.0.0.2:9000")
	if err := b.Leave(2 * time.Second); err != nil {
		t.Fatalf("leave: %v", err)
	}
	waitFor(t, "membership to shrink", func() bool { return len(coord.Members()) == 1 })
	c := joinClient(t, coord, "10.0.0.3:9000")
	if c.ID() == b.ID() {
		t.Errorf("rejoined node reused id %d", b.ID())
	}
	if c.ID() <= a.ID() {
		t.Errorf("ids not monotonic: %d after %d", c.ID(), a.ID())
	}
}

func TestWireRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ep := &Epoch{
		ID: 7,
		Members: []EpochMember{
			{ID: 0, Addr: "h0:1", Peers: []int{3}, Row: []float64{0.6, 0.4}},
			{ID: 3, Addr: "h3:1", Peers: []int{0}, Row: []float64{0.4, 0.6}},
		},
		LambdaBarMax: 0.2,
		Objective:    "slem",
	}
	go func() {
		writeFrame(a, msgEpoch, ep, time.Second)
	}()
	typ, body, err := readFrame(b, time.Second)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != msgEpoch {
		t.Fatalf("type = %v, want epoch", typ)
	}
	var got Epoch
	if err := unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.ID != 7 || len(got.Members) != 2 {
		t.Fatalf("round-tripped epoch = %+v", got)
	}

	plan, err := got.PlanFor(3)
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	// Sparse row in node-id space: indices 0 and 3 populated.
	want := []float64{0.4, 0, 0, 0.6}
	if len(plan.WRow) != len(want) {
		t.Fatalf("WRow = %v, want %v", plan.WRow, want)
	}
	for i := range want {
		if math.Abs(plan.WRow[i]-want[i]) > 1e-12 {
			t.Fatalf("WRow = %v, want %v", plan.WRow, want)
		}
	}
	if plan.Addrs[0] != "h0:1" {
		t.Errorf("plan addrs = %v", plan.Addrs)
	}
	if _, err := got.PlanFor(9); err == nil {
		t.Error("PlanFor(non-member) succeeded")
	}

	// The frame bodies byte for byte: a renamed field or tag is a new
	// wire format that an older coordinator or node misreads silently.
	digest := trace.RoundDigest{
		Node: 3, Round: 9, TraceID: 5, StartUnixNanos: 10, EndUnixNanos: 20,
		FramesSent: 2, BytesSent: 64, BytesFullSend: 256, ParamsSent: 4, ParamsTotal: 16,
	}
	digest.Phases = []trace.SpanDigest{{Name: trace.SpanBuild, StartUnixNanos: 10, EndUnixNanos: 12}}
	for _, tc := range []struct {
		typ     msgType
		payload any
		want    string
	}{
		{msgJoin, joinReq{Addr: "h3:1"}, `{"addr":"h3:1"}`},
		{msgJoinOK, joinResp{ID: 3}, `{"id":3}`},
		{msgLeave, leaveReq{ID: 3}, `{"id":3}`},
		{msgReject, rejectResp{Reason: "no"}, `{"reason":"no"}`},
		{msgHeartbeat, heartbeat{ID: 3, Traces: []trace.RoundDigest{digest}},
			`{"id":3,"traces":[{"node":3,"round":9,"trace_id":5,"start":10,"end":20,` +
				`"phases":[{"name":"build","start":10,"end":12}],` +
				`"frames_sent":2,"bytes_sent":64,"bytes_full_send":256,"params_sent":4,"params_total":16}]}`},
		{msgClockProbe, clockProbe{T0: 1}, `{"t0":1}`},
		{msgClockEcho, clockEcho{T0: 1, T1: 2, T2: 3}, `{"t0":1,"t1":2,"t2":3}`},
		{msgEpoch, ep, `{"id":7,"members":[` +
			`{"id":0,"addr":"h0:1","peers":[3],"row":[0.6,0.4]},` +
			`{"id":3,"addr":"h3:1","peers":[0],"row":[0.4,0.6]}],` +
			`"lambda_bar_max":0.2,"objective":"slem"}`},
	} {
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		if body := buf.String()[8:]; body != tc.want {
			t.Errorf("%v frame body:\n got %s\nwant %s", tc.typ, body, tc.want)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[msgType]string{
		msgJoin: "join", msgJoinOK: "join_ok", msgLeave: "leave",
		msgLeaveOK: "leave_ok", msgReject: "reject",
		msgHeartbeat: "heartbeat", msgEpoch: "epoch",
		msgClockProbe: "clock_probe", msgClockEcho: "clock_echo",
		msgType(99): "msgType(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint32(typ), got, want)
		}
	}
}

// TestEpochsNeverCutLiveEdges pins the invariant the nodes' edge-local
// epoch switch relies on (DESIGN.md §8): joins attach and repairs bridge,
// so they only add edges, and only a departed member's edges ever go.
// Through joins, a leave and the eviction of a cut vertex, every edge
// between two members of one epoch is still an edge of the next epoch
// if both ends are still members.
func TestEpochsNeverCutLiveEdges(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{
		MinMembers:       1,
		AttachDegree:     1, // a tree: the eviction below splits it
		HeartbeatTimeout: 250 * time.Millisecond,
	})
	edges := func(ep *Epoch) map[[2]int]bool {
		out := make(map[[2]int]bool)
		for _, m := range ep.Members {
			for _, p := range m.Peers {
				out[[2]int{min(m.ID, p), max(m.ID, p)}] = true
			}
		}
		return out
	}
	prev := (*Epoch)(nil)
	step := func(what string) {
		t.Helper()
		waitFor(t, what, func() bool { return prev == nil || coord.Epoch() > prev.ID })
		ep := coord.CurrentEpoch()
		checkEpoch(t, ep)
		if prev != nil {
			next := edges(ep)
			for e := range edges(prev) {
				if ep.Member(e[0]) != nil && ep.Member(e[1]) != nil && !next[e] {
					t.Errorf("%s: epoch %d cut edge {%d,%d} between two members", what, ep.ID, e[0], e[1])
				}
			}
		}
		prev = ep
	}

	clients := []*Client{joinClient(t, coord, "10.0.0.0:9000")}
	step("founding epoch")
	for i := 1; i < 5; i++ {
		clients = append(clients, joinClient(t, coord, fmt.Sprintf("10.0.0.%d:9000", i)))
		step("join")
	}
	if err := clients[3].Leave(2 * time.Second); err != nil {
		t.Fatalf("leave of a leaf: %v", err)
	}
	step("leave")
	hub := clients[0] // the tree's root: its eviction splits the survivors
	hub.Close()
	step("eviction")
	if ep := coord.CurrentEpoch(); ep.Member(hub.ID()) != nil || len(ep.Members) != 3 {
		t.Fatalf("post-eviction epoch %d lists %d members, hub present: %v",
			ep.ID, len(ep.Members), ep.Member(hub.ID()) != nil)
	}
}
