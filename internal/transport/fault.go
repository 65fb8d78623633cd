package transport

import (
	"fmt"
	"sync"
	"time"
)

// FaultAction is a deterministic failure injected into a Peer's Send path.
type FaultAction int

const (
	// FaultDrop silently discards the frame: the sender observes success
	// (as with a congested wireless link — it cannot tell), the receiver
	// treats the sender as a straggler for the round. No bytes are
	// charged, matching the simulator's link-failure accounting.
	FaultDrop FaultAction = iota + 1
	// FaultDelay writes the frame Rule.Delay late, simulating a slow link
	// or a transient stall. It holds back only its own link: Send returns
	// at once (so Broadcast moves on to the other links), later frames on
	// the link queue behind the delayed one, and a Broadcast over links
	// that are all delayed by d reaches every neighbor after about d, not
	// degree×d.
	FaultDelay
	// FaultReset closes the underlying TCP connection instead of sending,
	// simulating a mid-round connection reset: the Send fails, both read
	// loops exit, and the reconnect machinery takes over.
	FaultReset
)

// String implements fmt.Stringer.
func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultReset:
		return "reset"
	default:
		return fmt.Sprintf("FaultAction(%d)", int(a))
	}
}

// FaultRule schedules one action on the link to Peer at the given Round.
// Rules are one-shot: after firing, the link behaves normally again (a
// reset link reconnects; the rule does not re-fire on the new connection).
type FaultRule struct {
	Peer   int
	Round  int
	Action FaultAction
	Delay  time.Duration // used by FaultDelay
}

type faultKey struct{ peer, round int }

// FaultSet is a deterministic fault-injection plan keyed on (neighbor,
// round). Install it on a Peer with SetFaults; because faults fire on the
// sender's own Send calls at exact rounds, tests reproduce network
// flakiness bit-for-bit without real packet loss. Safe for concurrent use.
type FaultSet struct {
	mu    sync.Mutex
	rules map[faultKey]FaultRule
	fired int
}

// NewFaultSet returns an empty plan.
func NewFaultSet() *FaultSet {
	return &FaultSet{rules: make(map[faultKey]FaultRule)}
}

// Add schedules a rule, replacing any existing rule for the same
// (Peer, Round) pair.
func (f *FaultSet) Add(r FaultRule) *FaultSet {
	f.mu.Lock()
	f.rules[faultKey{peer: r.Peer, round: r.Round}] = r
	f.mu.Unlock()
	return f
}

// Fired returns how many rules have fired so far.
func (f *FaultSet) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Pending returns how many rules have not fired yet.
func (f *FaultSet) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.rules)
}

// take removes and returns the rule for (peer, round), if any.
func (f *FaultSet) take(peer, round int) (FaultRule, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := faultKey{peer: peer, round: round}
	r, ok := f.rules[k]
	if ok {
		delete(f.rules, k)
		f.fired++
	}
	return r, ok
}

// applyFault executes a fired FaultDrop or FaultReset rule on the link
// to neighbor `to` (FaultDelay goes through sendDelayed). It returns a
// non-nil error when the send must be reported as failed; FaultDrop
// returns nil and the frame is never written.
func (p *Peer) applyFault(to, round int, rule FaultRule) error {
	switch rule.Action {
	case FaultDrop:
		return nil
	case FaultReset:
		p.mu.Lock()
		pc, ok := p.conns[to]
		p.mu.Unlock()
		if ok {
			pc.conn.Close()
		}
		return fmt.Errorf("transport: injected connection reset on link %d→%d at round %d", p.id, to, round)
	default:
		return fmt.Errorf("transport: unknown fault action %d on link %d→%d", int(rule.Action), p.id, to)
	}
}

// sendDelayed implements FaultDelay: it takes pc.writeMu, copies frame
// into the link's reusable delay buffer and returns, leaving a goroutine
// to write the copy once delay has passed and only then release writeMu.
// Holding writeMu across the delay keeps the link's frames in order. The
// frame is counted at once, so BytesSent and FramesSent charge it to the
// round that sent it; the receiver sees it late and nothing else changes.
func (p *Peer) sendDelayed(pc *peerConn, lm *linkMetrics, to, round int, frame []byte, delay time.Duration) error {
	pc.writeMu.Lock()
	// wg.Add under p.mu, ordered against Close (see addConn).
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		pc.writeMu.Unlock()
		return fmt.Errorf("transport: peer %d closed before injected delay to %d", p.id, to)
	default:
	}
	p.wg.Add(1)
	p.mu.Unlock()
	pc.delayed = append(pc.delayed[:0], frame...)
	go p.writeDelayed(pc, to, round, pc.delayed, delay)
	p.countSent(lm, len(frame))
	return nil
}

// writeDelayed writes buf to pc after delay and releases pc.writeMu,
// which sendDelayed took on its behalf. Send has already returned, so a
// failed write cannot be reported to its caller: the connection is closed
// instead, and its read loop evicts the link and heals it like any dead
// link (the receiver has counted the sender a straggler meanwhile).
func (p *Peer) writeDelayed(pc *peerConn, to, round int, buf []byte, delay time.Duration) {
	defer p.wg.Done()
	defer pc.writeMu.Unlock()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.closed:
		return
	}
	if err := p.write(pc, to, round, buf); err != nil {
		pc.conn.Close()
	}
}
