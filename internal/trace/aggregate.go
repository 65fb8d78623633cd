package trace

import (
	"sort"
	"sync"
)

// OffsetSample is the aggregator's clock model for one node: the
// estimated offset of that node's clock relative to the coordinator's
// (positive = node clock ahead), the round-trip delay of the probe the
// estimate came from, and how many probes have been observed.
type OffsetSample struct {
	OffsetNanos int64 `json:"offset"`
	DelayNanos  int64 `json:"delay"`
	Samples     int   `json:"samples"`
}

// NodeRound is one node's digest plus the clock correction applied to it
// inside a merged ClusterRound.
type NodeRound struct {
	Digest      RoundDigest `json:"digest"`
	OffsetNanos int64       `json:"offset"`
}

// Blame attributes round lengthening to one node: LagNanos is how much
// later this node's frames arrived at some receiver than the rest of the
// round's traffic (reference-clock adjusted).
type Blame struct {
	Node     int   `json:"node"`
	LagNanos int64 `json:"lag"`
}

// PathStep is one span on the reconstructed cross-node critical path,
// in reference-clock (coordinator) time.
type PathStep struct {
	Node           int    `json:"node"`
	Span           string `json:"span"`
	StartUnixNanos int64  `json:"start"`
	EndUnixNanos   int64  `json:"end"`
}

// ClusterRound is the merged cluster-wide view of one round: every
// reporting node's digest with its clock correction, which members are
// missing, the straggler verdict, and the round's communication
// accounting. All timestamps are in the coordinator's reference clock.
type ClusterRound struct {
	Round        int         `json:"round"`
	Nodes        []NodeRound `json:"nodes"`
	Missing      []int       `json:"missing,omitempty"`
	Completeness float64     `json:"completeness"`

	StartUnixNanos int64 `json:"start"`
	EndUnixNanos   int64 `json:"end"`

	// Straggler is the node that lengthened the round (-1 when unknown,
	// e.g. a single-node round); StragglerLagNanos is its blame lag.
	Straggler         int     `json:"straggler"`
	StragglerLagNanos int64   `json:"straggler_lag"`
	Blames            []Blame `json:"blames,omitempty"`

	CriticalPath []PathStep `json:"critical_path,omitempty"`

	BytesSent     int64 `json:"bytes_sent"`
	BytesFullSend int64 `json:"bytes_full_send"`
}

// BytesSaved is the round's communication saving vs. a full-parameter
// send of every frame — the cluster-level form of the paper's
// communication-cost reduction.
func (cr *ClusterRound) BytesSaved() int64 { return cr.BytesFullSend - cr.BytesSent }

// mergedRound collects per-node digests for one round.
type mergedRound struct {
	byNode map[int]*RoundDigest
}

// Aggregator merges per-node RoundDigests into cluster-wide rounds. It
// lives on the coordinator: heartbeats push digests in via Add, the
// clock-sync loop feeds ObserveClock, membership changes call
// SetMembers, and the HTTP/snaptrace side reads merged rounds out via
// Round/Rounds. Safe for concurrent use.
type Aggregator struct {
	keep int

	mu       sync.Mutex
	offsets  map[int]OffsetSample // guarded by mu
	rounds   map[int]*mergedRound // guarded by mu
	members  map[int]bool         // guarded by mu
	maxRound int                  // guarded by mu
	// Cumulative byte accounting across every digest ever added (pruned
	// rounds keep contributing).
	bytesSent, bytesFull int64 // guarded by mu
}

// NewAggregator builds an aggregator retaining the most recent
// keepRounds rounds (default 256 when <= 0).
func NewAggregator(keepRounds int) *Aggregator {
	if keepRounds <= 0 {
		keepRounds = 256
	}
	return &Aggregator{
		keep:     keepRounds,
		offsets:  make(map[int]OffsetSample),
		rounds:   make(map[int]*mergedRound),
		members:  make(map[int]bool),
		maxRound: -1,
	}
}

// ObserveClock feeds one NTP-style probe exchange for node: t0 is the
// coordinator's send time, t1 the node's receive time, t2 the node's
// reply time (t1, t2 in the node's clock), t3 the coordinator's receive
// time. Offset and delay follow the classic midpoint estimate; the
// stored offset is only replaced by samples with a round-trip delay no
// worse than 2x the best seen, so one slow probe cannot wreck the model.
func (a *Aggregator) ObserveClock(node int, t0, t1, t2, t3 int64) {
	if a == nil {
		return
	}
	offset := ((t1 - t0) + (t2 - t3)) / 2
	delay := (t3 - t0) - (t2 - t1)
	if delay < 0 {
		return // non-causal sample: drop
	}
	a.mu.Lock()
	cur, ok := a.offsets[node]
	if !ok || cur.Samples == 0 || delay <= 2*cur.DelayNanos {
		if ok && cur.DelayNanos < delay {
			delay = cur.DelayNanos // remember the best delay seen
		}
		a.offsets[node] = OffsetSample{OffsetNanos: offset, DelayNanos: delay, Samples: cur.Samples + 1}
	} else {
		cur.Samples++
		a.offsets[node] = cur
	}
	a.mu.Unlock()
}

// Offset returns the current clock model for node (zero sample count
// means "no estimate yet": offset 0 is assumed).
func (a *Aggregator) Offset(node int) OffsetSample {
	if a == nil {
		return OffsetSample{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.offsets[node]
}

// SetMembers declares the current cluster membership, the denominator
// for round completeness. A node that never reports shows up in
// ClusterRound.Missing instead of blocking the merge.
func (a *Aggregator) SetMembers(ids []int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.members = make(map[int]bool, len(ids))
	for _, id := range ids {
		a.members[id] = true
	}
	a.mu.Unlock()
}

// Add ingests one node's round digest. It returns false when the digest
// was dropped (older than the retention window). Re-adding the same
// (node, round) replaces the earlier copy, so heartbeat retransmits are
// harmless.
func (a *Aggregator) Add(d RoundDigest) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxRound >= a.keep && d.Round <= a.maxRound-a.keep {
		return false
	}
	mr := a.rounds[d.Round]
	if mr == nil {
		mr = &mergedRound{byNode: make(map[int]*RoundDigest)}
		a.rounds[d.Round] = mr
	}
	if prev := mr.byNode[d.Node]; prev != nil {
		// Replace: back out the earlier copy's byte contribution.
		a.bytesSent -= prev.BytesSent
		a.bytesFull -= prev.BytesFullSend
	}
	dc := d
	mr.byNode[d.Node] = &dc
	a.bytesSent += d.BytesSent
	a.bytesFull += d.BytesFullSend
	if d.Round > a.maxRound {
		a.maxRound = d.Round
		for r := range a.rounds {
			if r <= a.maxRound-a.keep {
				delete(a.rounds, r)
			}
		}
	}
	return true
}

// Rounds lists the retained round numbers in ascending order.
func (a *Aggregator) Rounds() []int {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]int, 0, len(a.rounds))
	for r := range a.rounds {
		out = append(out, r)
	}
	a.mu.Unlock()
	sort.Ints(out)
	return out
}

// Latest returns the highest round seen (-1 before any digest).
func (a *Aggregator) Latest() int {
	if a == nil {
		return -1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxRound
}

// CumulativeBytes returns the all-time selective-send bytes and the
// full-send baseline bytes across every ingested digest.
func (a *Aggregator) CumulativeBytes() (sent, full int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytesSent, a.bytesFull
}

// Completeness returns the fraction of current members that reported the
// round (1 when membership is unknown/empty but digests exist).
func (a *Aggregator) Completeness(round int) float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	mr := a.rounds[round]
	if mr == nil {
		return 0
	}
	return completenessLocked(mr, a.members)
}

func completenessLocked(mr *mergedRound, members map[int]bool) float64 {
	if len(members) == 0 {
		if len(mr.byNode) > 0 {
			return 1
		}
		return 0
	}
	got := 0
	for id := range members {
		if mr.byNode[id] != nil {
			got++
		}
	}
	return float64(got) / float64(len(members))
}

// Round merges one round into the cluster-wide view. ok is false when
// no node has reported the round. The merge never blocks on missing
// members — they are listed in Missing and reflected in Completeness.
func (a *Aggregator) Round(round int) (ClusterRound, bool) {
	if a == nil {
		return ClusterRound{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	mr := a.rounds[round]
	if mr == nil || len(mr.byNode) == 0 {
		return ClusterRound{}, false
	}

	cr := ClusterRound{Round: round, Straggler: -1}
	ids := make([]int, 0, len(mr.byNode))
	for id := range mr.byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := mr.byNode[id]
		off := a.offsets[id].OffsetNanos
		cr.Nodes = append(cr.Nodes, NodeRound{Digest: *d, OffsetNanos: off})
		cr.BytesSent += d.BytesSent
		cr.BytesFullSend += d.BytesFullSend
		if d.StartUnixNanos != 0 {
			if s := d.StartUnixNanos - off; cr.StartUnixNanos == 0 || s < cr.StartUnixNanos {
				cr.StartUnixNanos = s
			}
		}
		if d.EndUnixNanos != 0 {
			if e := d.EndUnixNanos - off; e > cr.EndUnixNanos {
				cr.EndUnixNanos = e
			}
		}
	}
	for id := range a.members {
		if mr.byNode[id] == nil {
			cr.Missing = append(cr.Missing, id)
		}
	}
	sort.Ints(cr.Missing)
	cr.Completeness = completenessLocked(mr, a.members)

	cr.Blames = a.blamesLocked(mr, ids)
	if len(cr.Blames) > 0 {
		cr.Straggler = cr.Blames[0].Node
		cr.StragglerLagNanos = cr.Blames[0].LagNanos
	} else if len(ids) > 0 {
		// No receive data (e.g. tracing without wire contexts): fall back
		// to the node whose round ended last in reference time.
		var lastEnd int64
		for _, nr := range cr.Nodes {
			if nr.Digest.EndUnixNanos == 0 {
				continue
			}
			if e := nr.Digest.EndUnixNanos - nr.OffsetNanos; cr.Straggler == -1 || e > lastEnd {
				lastEnd, cr.Straggler = e, nr.Digest.Node
			}
		}
	}
	cr.CriticalPath = a.criticalPathLocked(mr, &cr)
	return cr, true
}

// blamesLocked ranks nodes by how much their frames delayed receivers.
// For each receiver, the sender of the last-arriving frame is blamed for
// the gap between that arrival and the later of (second-last arrival,
// gather start) — the stretch of gather wait only that sender is
// responsible for. Arrival times are reference-clock adjusted. Caller
// holds a.mu.
func (a *Aggregator) blamesLocked(mr *mergedRound, ids []int) []Blame {
	lag := make(map[int]int64)
	for _, id := range ids {
		d := mr.byNode[id]
		off := a.offsets[id].OffsetNanos
		if len(d.Recvs) == 0 {
			continue
		}
		lastFrom, last, second := -1, int64(0), int64(0)
		for _, r := range d.Recvs {
			at := r.RecvUnixNanos - off
			if at > last {
				second, last, lastFrom = last, at, r.From
			} else if at > second {
				second = at
			}
		}
		floor := second
		if g, ok := d.Phase(SpanGather); ok {
			if gs := g.StartUnixNanos - off; gs > floor || second == 0 {
				floor = gs
			}
		}
		if lastFrom >= 0 && last > floor && floor > 0 {
			lag[lastFrom] += last - floor
		}
	}
	blames := make([]Blame, 0, len(lag))
	for node, l := range lag {
		blames = append(blames, Blame{Node: node, LagNanos: l})
	}
	sort.Slice(blames, func(i, j int) bool {
		if blames[i].LagNanos != blames[j].LagNanos {
			return blames[i].LagNanos > blames[j].LagNanos
		}
		return blames[i].Node < blames[j].Node
	})
	return blames
}

// criticalPathLocked walks the round's longest causal chain backwards:
// start from the node whose round ended last (reference clock), step
// from its gather to the sender of its last-arriving frame, and emit
// that sender's send-side phases followed by the receiver's tail. Caller
// holds a.mu.
func (a *Aggregator) criticalPathLocked(mr *mergedRound, cr *ClusterRound) []PathStep {
	// Receiver = node with the latest round end.
	var recv *RoundDigest
	var recvOff, recvEnd int64
	for _, nr := range cr.Nodes {
		d := nr.Digest
		if d.EndUnixNanos == 0 {
			continue
		}
		if e := d.EndUnixNanos - nr.OffsetNanos; recv == nil || e > recvEnd {
			dd := d
			recv, recvOff, recvEnd = &dd, nr.OffsetNanos, e
		}
	}
	if recv == nil {
		return nil
	}
	// Last-arriving frame at the receiver identifies the blocking sender.
	var sender *RoundDigest
	var senderOff int64
	var lastAt int64
	for _, r := range recv.Recvs {
		if at := r.RecvUnixNanos - recvOff; at > lastAt {
			if sd := mr.byNode[r.From]; sd != nil {
				sender, senderOff, lastAt = sd, a.offsets[r.From].OffsetNanos, at
			}
		}
	}
	var path []PathStep
	step := func(d *RoundDigest, off int64, name string) {
		if p, ok := d.Phase(name); ok {
			path = append(path, PathStep{
				Node:           d.Node,
				Span:           name,
				StartUnixNanos: p.StartUnixNanos - off,
				EndUnixNanos:   p.EndUnixNanos - off,
			})
		}
	}
	if sender != nil && sender.Node != recv.Node {
		step(sender, senderOff, SpanBuild)
		step(sender, senderOff, SpanEncode)
		step(sender, senderOff, SpanBroadcast)
	}
	step(recv, recvOff, SpanGather)
	step(recv, recvOff, SpanDecode)
	step(recv, recvOff, SpanIntegrate)
	return path
}
