package controlplane

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/trace"
)

// ClientConfig configures a node's connection to the coordinator.
type ClientConfig struct {
	// Coordinator is the coordinator's control-plane address.
	Coordinator string
	// Advertise is this node's data-plane listen address as other members
	// should dial it.
	Advertise string
	// DialTimeout bounds the initial dial and join handshake (default 10s).
	DialTimeout time.Duration
	// JoinWait bounds how long Join blocks for the first epoch (default
	// 2 minutes — founding members wait here until the quorum completes).
	JoinWait time.Duration
	// HeartbeatEvery is the heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// Logf, when set, receives control-plane diagnostics.
	Logf func(format string, args ...any)
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.JoinWait <= 0 {
		cfg.JoinWait = 2 * time.Minute
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	return cfg
}

// Client is the node-side control-plane handle: it joins the cluster,
// heartbeats its liveness, and surfaces the coordinator's epochs for
// the node to apply at round boundaries.
type Client struct {
	cfg     ClientConfig
	conn    net.Conn
	writeMu sync.Mutex
	id      int

	mu     sync.Mutex
	latest *Epoch // guarded by mu

	// tracer, when set, has its completed round digests piggybacked onto
	// heartbeats so the coordinator's aggregator sees every round.
	tracer atomic.Pointer[trace.Tracer]

	firstEpoch chan struct{} // closed when the first epoch arrives
	leaveResp  chan leaveResult
	closed     chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

type leaveResult struct {
	ok     bool
	reason string
}

// Join connects to the coordinator, requests admission, and blocks until
// the cluster's current (or first) epoch arrives, so the caller returns
// with a complete initial configuration: its assigned node id and a Plan
// to boot from.
func Join(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("controlplane: join requires an advertised data-plane address")
	}
	conn, err := net.DialTimeout("tcp", cfg.Coordinator, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("controlplane: dial coordinator %s: %w", cfg.Coordinator, err)
	}
	if err := writeFrame(conn, msgJoin, joinReq{Addr: cfg.Advertise}, cfg.DialTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	typ, body, err := readFrame(conn, cfg.DialTimeout)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("controlplane: awaiting join reply: %w", err)
	}
	switch typ {
	case msgJoinOK:
	case msgReject:
		var rej rejectResp
		unmarshal(body, &rej)
		conn.Close()
		return nil, fmt.Errorf("controlplane: join rejected: %s", rej.Reason)
	default:
		conn.Close()
		return nil, fmt.Errorf("controlplane: unexpected %v reply to join", typ)
	}
	var resp joinResp
	if err := unmarshal(body, &resp); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		cfg:        cfg,
		conn:       conn,
		id:         resp.ID,
		firstEpoch: make(chan struct{}),
		leaveResp:  make(chan leaveResult, 1),
		closed:     make(chan struct{}),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.heartbeatLoop()

	select {
	case <-c.firstEpoch:
	case <-time.After(cfg.JoinWait):
		c.Close()
		return nil, fmt.Errorf("controlplane: node %d joined but no epoch arrived within %v "+
			"(cluster below quorum?)", resp.ID, cfg.JoinWait)
	case <-c.closed:
		return nil, fmt.Errorf("controlplane: connection to coordinator lost before the first epoch")
	}
	return c, nil
}

// ID returns the node id the coordinator assigned.
func (c *Client) ID() int { return c.id }

// Latest returns the newest epoch received, never nil after Join returns.
func (c *Client) Latest() *Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// SetTracer attaches the node's round tracer: completed round digests
// ride on heartbeats, and the client answers the coordinator's clock
// probes (probes are answered either way — a nil tracer only stops the
// digest push).
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer.Store(t) }

// Leave asks the coordinator for a graceful departure and waits for the
// verdict. On success the control connection is closed; a leave that
// would disconnect the topology returns an error and the node remains a
// member.
func (c *Client) Leave(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c.writeMu.Lock()
	err := writeFrame(c.conn, msgLeave, leaveReq{ID: c.id}, timeout)
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case res := <-c.leaveResp:
		if !res.ok {
			return fmt.Errorf("controlplane: leave rejected: %s", res.reason)
		}
		c.Close()
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("controlplane: no reply to leave within %v", timeout)
	case <-c.closed:
		// Connection died after the request; the coordinator will treat us
		// as gone either way.
		return nil
	}
}

// Close tears down the control connection. It does not notify the
// coordinator — use Leave for a graceful exit; a plain Close leaves
// heartbeat eviction to reclaim the membership.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
	c.wg.Wait()
	return nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// readLoop consumes coordinator pushes: epochs and leave verdicts. There
// is no control-plane reconnect — a node whose control connection dies
// keeps training on its last epoch until heartbeat eviction removes it,
// at which point surviving members drop it via the next epoch.
func (c *Client) readLoop() {
	defer c.wg.Done()
	first := true
	for {
		typ, body, err := readFrame(c.conn, 0)
		if err != nil {
			select {
			case <-c.closed:
			default:
				c.logf("controlplane: node %d: coordinator connection lost: %v", c.id, err)
				c.closeOnce.Do(func() {
					close(c.closed)
					c.conn.Close()
				})
			}
			return
		}
		switch typ {
		case msgEpoch:
			var ep Epoch
			if err := unmarshal(body, &ep); err != nil {
				c.logf("controlplane: node %d: bad epoch payload: %v", c.id, err)
				continue
			}
			c.mu.Lock()
			stale := c.latest != nil && ep.ID <= c.latest.ID
			if !stale {
				c.latest = &ep
			}
			c.mu.Unlock()
			if stale {
				continue
			}
			c.logf("controlplane: node %d: received epoch %d (%d members)",
				c.id, ep.ID, len(ep.Members))
			if first {
				first = false
				close(c.firstEpoch)
			}
		case msgLeaveOK:
			select {
			case c.leaveResp <- leaveResult{ok: true}:
			default:
			}
		case msgReject:
			var rej rejectResp
			unmarshal(body, &rej)
			select {
			case c.leaveResp <- leaveResult{ok: false, reason: rej.Reason}:
			default:
			}
		case msgClockProbe:
			// Echo immediately: the midpoint estimate's error grows with the
			// processing gap between T1 and T2, so both are stamped here, as
			// close to the socket as the protocol allows.
			t1 := time.Now().UnixNano()
			var probe clockProbe
			if err := unmarshal(body, &probe); err != nil {
				c.logf("controlplane: node %d: bad clock probe: %v", c.id, err)
				continue
			}
			echo := clockEcho{T0: probe.T0, T1: t1, T2: time.Now().UnixNano()}
			c.writeMu.Lock()
			err := writeFrame(c.conn, msgClockEcho, echo, 5*time.Second)
			c.writeMu.Unlock()
			if err != nil {
				c.logf("controlplane: node %d: clock echo failed: %v", c.id, err)
			}
		default:
			c.logf("controlplane: node %d: unexpected %v from coordinator", c.id, typ)
		}
	}
}

// maxDigestsPerBeat bounds the trace digests piggybacked on one
// heartbeat: enough to drain several rounds of backlog per beat without
// letting one frame grow unboundedly after a long stall.
const maxDigestsPerBeat = 16

func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	// lastPushed tracks the newest round digest already shipped, so each
	// beat sends only what completed since the previous one.
	lastPushed := -1
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
		}
		hb := heartbeat{ID: c.id}
		if tr := c.tracer.Load(); tr.Enabled() {
			hb.Traces = tr.DigestsSince(lastPushed+1, maxDigestsPerBeat)
			if n := len(hb.Traces); n > 0 {
				lastPushed = hb.Traces[n-1].Round
			}
		}
		c.writeMu.Lock()
		err := writeFrame(c.conn, msgHeartbeat, hb, 5*time.Second)
		c.writeMu.Unlock()
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
				c.logf("controlplane: node %d: heartbeat failed: %v", c.id, err)
			}
		}
	}
}
