// Package controlplane makes a SNAP TCP cluster elastic: a coordinator
// service owns the authoritative membership and topology, re-optimizes the
// mixing weight matrix W centrally on every membership change (the paper's
// Section IV-B optimization assumes exactly this kind of global view), and
// publishes versioned epochs that nodes apply at a round boundary.
//
// The paper fixes the set of edge servers before training starts; this
// package removes that assumption while preserving the algorithmic
// contract: the W in force is symmetric and doubly stochastic in every
// round, because each node moves to a new epoch edge by edge — an edge
// takes its new weight in the first round in which both ends' frames
// carry the epoch (core.Engine.Reconfigure) — so EXTRA's correction s
// carries over every switch and no switch round has to be agreed on.
//
// Wire protocol: control connections carry length-prefixed frames in the
// same style as the data plane ([len u32][type u32][payload]), with JSON
// payloads — control traffic is rare (joins, leaves, heartbeats, epoch
// pushes), so debuggability beats compactness.
package controlplane

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/snapml/snap/internal/trace"
)

// maxControlFrame bounds one control frame. Epochs grow with cluster size
// (a row per member), but even a 10k-member epoch is far below this.
const maxControlFrame = 16 << 20

// Control frame types.
type msgType uint32

const (
	// msgJoin (node → coordinator): request admission. Payload: joinReq.
	msgJoin msgType = iota + 1
	// msgJoinOK (coordinator → node): admission granted. Payload: joinResp.
	msgJoinOK
	// msgLeave (node → coordinator): request graceful removal. Payload:
	// leaveReq.
	msgLeave
	// msgLeaveOK (coordinator → node): removal granted; the connection
	// closes after this.
	msgLeaveOK
	// msgReject (coordinator → node): a join or leave was refused.
	// Payload: rejectResp.
	msgReject
	// msgHeartbeat (node → coordinator): liveness + training progress.
	// Payload: heartbeat.
	msgHeartbeat
	// msgEpoch (coordinator → node): a new cluster configuration. Payload:
	// Epoch.
	msgEpoch
	// msgClockProbe (coordinator → node): an NTP-style clock probe; the
	// node echoes immediately. Payload: clockProbe. Appended after the
	// original types so the wire values of older messages never move.
	msgClockProbe
	// msgClockEcho (node → coordinator): the probe reply. Payload:
	// clockEcho.
	msgClockEcho
)

func (t msgType) String() string {
	switch t {
	case msgJoin:
		return "join"
	case msgJoinOK:
		return "join_ok"
	case msgLeave:
		return "leave"
	case msgLeaveOK:
		return "leave_ok"
	case msgReject:
		return "reject"
	case msgHeartbeat:
		return "heartbeat"
	case msgEpoch:
		return "epoch"
	case msgClockProbe:
		return "clock_probe"
	case msgClockEcho:
		return "clock_echo"
	default:
		return fmt.Sprintf("msgType(%d)", uint32(t))
	}
}

// The frame bodies below are the coordinator↔node wire contract; their
// JSON encodings are pinned byte for byte in TestWireRoundTrip.

type joinReq struct {
	// Addr is the node's data-plane listen address, as reachable by the
	// other members.
	Addr string `json:"addr"`
}

type joinResp struct {
	// ID is the node id the coordinator assigned. Ids are monotonic and
	// never reused, so a node that dies and rejoins gets a fresh identity
	// (its stale views die with the old id).
	ID int `json:"id"`
}

type leaveReq struct {
	ID int `json:"id"`
}

type rejectResp struct {
	Reason string `json:"reason"`
}

type heartbeat struct {
	ID int `json:"id"`
	// Traces carries the node's completed round digests since the last
	// heartbeat (empty when tracing is off). JSON keeps this forward- and
	// backward-compatible: an old coordinator ignores the field, an old
	// node simply never sends it.
	Traces []trace.RoundDigest `json:"traces,omitempty"`
}

// clockProbe is the coordinator's NTP-style probe: T0 is the
// coordinator's clock at send time, echoed back so the coordinator can
// pair the reply without per-member state.
type clockProbe struct {
	T0 int64 `json:"t0"`
}

// clockEcho is the node's reply: T0 from the probe, T1 the node's clock
// at receive, T2 the node's clock at reply. The coordinator stamps T3 on
// arrival and feeds all four into trace.Aggregator.ObserveClock.
type clockEcho struct {
	T0 int64 `json:"t0"`
	T1 int64 `json:"t1"`
	T2 int64 `json:"t2"`
}

// EpochMember is one cluster member as described by an epoch.
type EpochMember struct {
	// ID is the member's permanent node id.
	ID int `json:"id"`
	// Addr is the member's data-plane listen address.
	Addr string `json:"addr"`
	// Peers lists the member's topology neighbors by node id.
	Peers []int `json:"peers"`
	// Row is the member's row of the optimized W, indexed by position in
	// the epoch's Members slice (which is sorted by ID).
	Row []float64 `json:"row"`
}

// Epoch is one versioned cluster configuration: the authoritative member
// list, topology, and per-node weight rows. A node applies an epoch at
// its next round boundary after it arrives.
type Epoch struct {
	// ID is the epoch number, starting at 1 and strictly increasing.
	ID int `json:"id"`
	// Members is the full membership, sorted by node id. Row vectors are
	// indexed by position in this slice.
	Members []EpochMember `json:"members"`
	// LambdaBarMax is λ̄max(W) of the epoch's weight matrix — the spectral
	// quantity the paper's problem (21)/(23) minimizes.
	LambdaBarMax float64 `json:"lambda_bar_max"`
	// Objective names the weights.Objective that won the bound comparison
	// ("metropolis" when no optimized candidate beat the baseline).
	Objective string `json:"objective"`
}

// Member returns the epoch entry for node id, or nil if id is not a
// member of this epoch.
func (e *Epoch) Member(id int) *EpochMember {
	for i := range e.Members {
		if e.Members[i].ID == id {
			return &e.Members[i]
		}
	}
	return nil
}

// Plan is the node-side digest of an epoch: everything a PeerNode needs
// to reconfigure itself, in node-id space.
type Plan struct {
	// Epoch is the epoch id.
	Epoch int
	// WRow is this node's sparse weight row indexed by node id (length
	// max member id + 1; nonzero only at the diagonal and neighbors).
	WRow []float64
	// Neighbors is the sorted neighbor id set.
	Neighbors []int
	// Addrs maps each neighbor id to its data-plane address.
	Addrs map[int]string
}

// PlanFor projects the epoch onto one member, translating the dense row
// into node-id space. It returns an error if id is not in the epoch or
// the epoch is internally inconsistent.
func (e *Epoch) PlanFor(id int) (*Plan, error) {
	self := e.Member(id)
	if self == nil {
		return nil, fmt.Errorf("controlplane: node %d is not a member of epoch %d", id, e.ID)
	}
	if len(self.Row) != len(e.Members) {
		return nil, fmt.Errorf("controlplane: epoch %d row for node %d has %d entries for %d members",
			e.ID, id, len(self.Row), len(e.Members))
	}
	maxID := 0
	addrByID := make(map[int]string, len(e.Members))
	for _, m := range e.Members {
		if m.ID < 0 {
			return nil, fmt.Errorf("controlplane: epoch %d lists negative member id %d", e.ID, m.ID)
		}
		if m.ID > maxID {
			maxID = m.ID
		}
		addrByID[m.ID] = m.Addr
	}
	wRow := make([]float64, maxID+1)
	for j, m := range e.Members {
		wRow[m.ID] = self.Row[j]
	}
	neighbors := append([]int(nil), self.Peers...)
	addrs := make(map[int]string, len(neighbors))
	for _, nid := range neighbors {
		addr, ok := addrByID[nid]
		if !ok {
			return nil, fmt.Errorf("controlplane: epoch %d lists unknown neighbor %d for node %d", e.ID, nid, id)
		}
		addrs[nid] = addr
	}
	return &Plan{
		Epoch:     e.ID,
		WRow:      wRow,
		Neighbors: neighbors,
		Addrs:     addrs,
	}, nil
}

// writeFrameTo serializes payload as JSON and writes one
// [len][type][json] control frame to w. Safe for concurrent use only
// with external locking.
func writeFrameTo(w io.Writer, typ msgType, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("controlplane: marshal %v: %w", typ, err)
	}
	var header [8]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(header[4:8], uint32(typ))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("controlplane: write %v header: %w", typ, err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("controlplane: write %v body: %w", typ, err)
	}
	return nil
}

// writeFrame is writeFrameTo over a connection with a write deadline.
func writeFrame(conn net.Conn, typ msgType, payload any, timeout time.Duration) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return writeFrameTo(conn, typ, payload)
}

// readFrameFrom reads one control frame from r, returning its type and
// raw JSON payload. Malformed input yields an error, never a panic —
// the coordinator feeds this bytes from arbitrary remote peers.
func readFrameFrom(r io.Reader) (msgType, []byte, error) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(header[:4])
	typ := msgType(binary.BigEndian.Uint32(header[4:8]))
	if size > maxControlFrame {
		return 0, nil, fmt.Errorf("controlplane: %v frame of %d bytes exceeds limit", typ, size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// readFrame is readFrameFrom over a connection with a read deadline.
func readFrame(conn net.Conn, timeout time.Duration) (msgType, []byte, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	return readFrameFrom(conn)
}
