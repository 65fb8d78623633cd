package serve

import (
	"context"
	"sync"
	"time"

	"github.com/snapml/snap/internal/obs"
)

// Ingress shaping for POST /v1/predict. A handler admits at most
// predictRate requests per second to its gateway, sustained; a caller
// that has been quieter than that has predictBurst of credit, so the
// occasional request — the edge caller the gateway is for — never waits.
// A closed loop that would otherwise run as fast as the box's CPUs allow
// is delayed (not refused) to the rate, which makes its throughput a
// property of the clock instead of the host's speed of the minute. The
// rate sits below what two loopback connections sustain on two vCPUs
// in a slow half second with one-row MLP bodies (the heaviest one-row
// request), so a slow minute still reaches it. In-process callers of
// Gateway.Predict are not shaped. DESIGN.md §13 "Ingress shaping" has
// the why, the cost and how to lift it.
const (
	predictRate     = 16000
	predictInterval = time.Second / predictRate
	predictBurst    = 2 * predictNap // 96 requests

	// predictNap is the shortest wait admit asks a timer for. On a process
	// with nothing else to run a Go timer fires a millisecond or so late
	// however little it was asked for (the netpoller sleeps in whole
	// milliseconds), and on time when another P happens to be awake;
	// asking for milliseconds outright makes a wait cost the same either
	// way. The slots that go by meanwhile are kept as credit
	// (predictBurst covers a nap and its lateness), so the requests right
	// after a nap go through without one and the rate is unchanged. A
	// connection naps at most once per predictNap, so of predictRate
	// requests a second at most 1/(predictRate·predictNap) per saturating
	// connection nap — 2 % at 3 ms — and the nap stays beyond the p95 of
	// up to two such connections.
	predictNap = 3 * time.Millisecond
)

// pacer is a virtual-scheduling (GCRA) shaper: next is the earliest time
// the next admission may start. The callers waiting for their slots are a
// queue in front of the gateway's, so one whose slot lies beyond its
// deadline is refused like a full queue: ErrOverloaded, counted as
// queue_full. A nil pacer admits at once.
type pacer struct {
	mu   sync.Mutex
	next time.Time

	delayed *obs.Counter
	refused *obs.Counter
}

func newPacer(o *obs.Observer) *pacer {
	return &pacer{
		delayed: o.Counter(MServeShaped),
		refused: o.Counter(obs.Label(MServeRejects, LReason, ReasonQueueFull)),
	}
}

// reserve books the next admission slot and returns how long the caller
// must wait for it. A wait beyond limit books nothing and reports false.
func (p *pacer) reserve(now time.Time, limit time.Duration) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if floor := now.Add(-predictBurst); p.next.Before(floor) {
		p.next = floor
	}
	wait := p.next.Sub(now)
	if wait > limit {
		return wait, false
	}
	p.next = p.next.Add(predictInterval)
	return wait, true
}

// admit blocks until the caller's slot. It returns ErrOverloaded when
// the slot lies beyond limit, and ctx's error if that ends first.
func (p *pacer) admit(ctx context.Context, limit time.Duration) error {
	if p == nil {
		return nil
	}
	wait, ok := p.reserve(time.Now(), limit)
	if !ok {
		p.refused.Inc()
		return ErrOverloaded
	}
	if wait <= 0 {
		return nil
	}
	p.delayed.Inc()
	t := time.NewTimer(max(wait, predictNap))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
