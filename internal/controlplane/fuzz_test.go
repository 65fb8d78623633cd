package controlplane

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/snapml/snap/internal/trace"
)

// frameBytes renders one control frame into a byte slice for seeding.
func frameBytes(t *testing.F, typ msgType, payload any) []byte {
	var buf bytes.Buffer
	if err := writeFrameTo(&buf, typ, payload); err != nil {
		t.Fatalf("seed frame: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadFrame hardens the control-plane frame parser the same way
// codec.FuzzDecode hardens the data plane: arbitrary byte streams from a
// remote peer must never panic the coordinator, and any frame that
// parses must survive a write/read round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, msgJoin, joinReq{Addr: "127.0.0.1:7000"}))
	f.Add(frameBytes(f, msgHeartbeat, heartbeat{ID: 3}))
	f.Add(frameBytes(f, msgHeartbeat, heartbeat{ID: 3,
		Traces: []trace.RoundDigest{{
			Node: 3, Round: 17, TraceID: trace.ID(3, 17),
			StartUnixNanos: 100, EndUnixNanos: 900,
			Phases: []trace.SpanDigest{{Name: trace.SpanBuild, StartUnixNanos: 100, EndUnixNanos: 200}},
			Recvs:  []trace.RecvDigest{{From: 1, Bytes: 64, TraceID: trace.ID(1, 17), SendUnixNanos: 150, RecvUnixNanos: 400}},
		}}}))
	f.Add(frameBytes(f, msgClockProbe, clockProbe{T0: 123456789}))
	f.Add(frameBytes(f, msgClockEcho, clockEcho{T0: 1, T1: 2, T2: 3}))
	f.Add(frameBytes(f, msgEpoch, Epoch{
		ID: 1,
		Members: []EpochMember{
			{ID: 0, Addr: "a", Peers: []int{1}, Row: []float64{0.5, 0.5}},
			{ID: 1, Addr: "b", Peers: []int{0}, Row: []float64{0.5, 0.5}},
		},
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, '{'})
	// Header advertising a body far beyond maxControlFrame.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, raw []byte) {
		typ, body, err := readFrameFrom(bytes.NewReader(raw))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, typ, json.RawMessage(body)); err != nil {
			// Only a payload that is not valid JSON fails re-marshaling;
			// readFrameFrom does not inspect the payload, so that is fine.
			return
		}
		typ2, body2, err := readFrameFrom(&buf)
		if err != nil {
			t.Fatalf("re-read of re-written frame failed: %v", err)
		}
		if typ2 != typ || !bytes.Equal(body2, body) {
			t.Fatalf("round trip changed frame: type %v->%v, %d->%d payload bytes",
				typ, typ2, len(body), len(body2))
		}
	})
}

// FuzzEpochPlan feeds arbitrary JSON into the epoch payload path: a
// malformed or adversarial epoch pushed over a control connection must
// produce an error from PlanFor, never a panic in the node.
func FuzzEpochPlan(f *testing.F) {
	good, _ := json.Marshal(Epoch{
		ID: 2,
		Members: []EpochMember{
			{ID: 0, Addr: "a", Peers: []int{1, 2}, Row: []float64{0.4, 0.3, 0.3}},
			{ID: 1, Addr: "b", Peers: []int{0}, Row: []float64{0.3, 0.7, 0}},
			{ID: 2, Addr: "c", Peers: []int{0}, Row: []float64{0.3, 0, 0.7}},
		},
	})
	f.Add(good, 0)
	f.Add([]byte(`{"id":1,"members":[{"id":-5,"row":[1]}]}`), -5)
	f.Add([]byte(`{"id":1,"members":[{"id":0,"peers":[99],"row":[1]}]}`), 0)
	f.Add([]byte(`{"id":1,"members":[{"id":0,"row":[]}]}`), 0)
	f.Add([]byte(`null`), 0)

	f.Fuzz(func(t *testing.T, raw []byte, id int) {
		var e Epoch
		if err := json.Unmarshal(raw, &e); err != nil {
			return
		}
		plan, err := e.PlanFor(id)
		if err != nil {
			return // rejection is fine; panics and index escapes are not
		}
		if plan.Epoch != e.ID {
			t.Fatalf("plan carries wrong epoch identity: %+v vs epoch %d", plan, e.ID)
		}
		for _, nid := range plan.Neighbors {
			if _, ok := plan.Addrs[nid]; !ok {
				t.Fatalf("accepted plan missing address for neighbor %d", nid)
			}
			if nid < 0 || nid >= len(plan.WRow) {
				t.Fatalf("accepted plan neighbor %d outside weight row of length %d", nid, len(plan.WRow))
			}
		}
		// Every member of an accepted epoch must itself project cleanly.
		for _, m := range e.Members {
			if _, err := e.PlanFor(m.ID); err != nil && m.ID == id {
				t.Fatalf("member %d accepted then rejected: %v", m.ID, err)
			}
		}
	})
}
