package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
)

// maxFrameBytes bounds a single wire frame; generous for the paper's
// largest model (a 784-30-10 MLP update is < 300 KB).
const maxFrameBytes = 64 << 20

// frameFlagTrace marks a frame that carries a trace.BlockBytes trace
// block between the header and the payload. It lives in the top bit of
// the round field — rounds are far below 2^31, so the bit is free — and
// the length field covers block + payload. A peer with tracing disabled
// emits frames byte-identical to the pre-trace wire format, which keeps
// traceless new binaries interoperable with old ones in both directions;
// tracing itself is enabled cluster-wide or not at all.
const frameFlagTrace = 1 << 31

const (
	// dialAttemptTimeout caps a single TCP dial attempt and its hello so
	// a hanging SYN (blackholed route, dropped packets) cannot stall a
	// link's dial loop.
	dialAttemptTimeout = 1 * time.Second
	// reconnectBaseDelay and reconnectMaxDelay bound the exponential
	// backoff between a link's failed dial attempts.
	reconnectBaseDelay = 50 * time.Millisecond
	reconnectMaxDelay  = 2 * time.Second
)

// LinkStats counts connection lifecycle events on one neighbor link.
type LinkStats struct {
	// Connects is the number of connections ever established (initial
	// connects and reconnects).
	Connects int
	// Disconnects is the number of times the registered connection died
	// or was replaced.
	Disconnects int
	// Reconnects is the number of link healings: either a new connection
	// filled a slot the link had before (the dead conn was already
	// evicted), or it replaced a registered connection — which happens
	// when the dialer's re-dial outran our read loop's error.
	Reconnects int
}

// Peer is one edge server's TCP endpoint. Peers keep one persistent
// connection per neighbor and exchange length-prefixed, round-tagged
// frames. GatherStream implements the paper's RIP-like synchronization:
// wait for this round's frame from every *currently connected* neighbor,
// giving up on stragglers after a timeout.
//
// The transport is fault tolerant: a dead connection is evicted as soon as
// its read loop observes the failure (so GatherStream stops waiting for
// it), and the link is dialed again with exponential backoff and jitter.
// Each link has one dialer, the lower-id peer, and at most one dial loop
// in flight; the higher-id peer only accepts. The newest connection a
// link registers replaces any older one, and since one side dials them
// in order, both ends keep the same connection.
type Peer struct {
	id       int
	listener net.Listener

	mu        sync.Mutex
	conns     map[int]*peerConn    // guarded by mu
	addrs     map[int]string       // guarded by mu; known neighbor listen addresses (for re-dial)
	dialing   map[int]bool         // guarded by mu; a dialLoop is running for this neighbor
	stats     map[int]*LinkStats   // guarded by mu
	linkM     map[int]*linkMetrics // guarded by mu; per-link metric handles (lazy)
	downSince map[int]time.Time    // guarded by mu; link-down timestamp, for reconnect latency

	// onReconnect, when set (before Connect), is invoked once per link
	// down→up transition with the neighbor id. Called from a transport
	// goroutine; implementations must be safe for concurrent use.
	onReconnect func(nid int) // guarded by mu

	// faults, when set, injects deterministic failures into Send.
	faults *FaultSet

	inbox chan inFrame

	// membership is nudged whenever the connection set changes so a
	// blocked GatherStream re-evaluates how many frames it should wait
	// for.
	membership chan struct{}

	// pending buffers frames by round until GatherStream asks for them.
	pendingMu sync.Mutex
	pending   map[int]map[int][]byte // guarded by pendingMu

	// Streaming-gather scratch, owned by the single gathering goroutine:
	// GatherStream must not be invoked concurrently with itself (the
	// round loop is its only caller). Reused across rounds
	// so a steady-state stream performs no allocations.
	streamSeen  map[int]bool // senders already delivered this call
	streamKeep  map[int]bool // expected-sender set, rebuilt per flush
	streamReady []inFrame    // frames staged for delivery outside locks

	bytesSent  atomic.Int64
	framesSent atomic.Int64
	// tracer, when set, records a receive observation per inbound traced
	// frame and stamps a trace block onto every outbound frame. Atomic so
	// long-lived read loops observe a SetTracer issued after their
	// connection was established.
	tracer    atomic.Pointer[trace.Tracer]
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error // set once inside closeOnce.Do, read after it
	wg        sync.WaitGroup

	// Observability. The handles are always valid: with no observer they
	// are detached metrics, so hot paths record unconditionally.
	obs         *obs.Observer  // guarded by mu
	gatherWaitH *obs.Histogram // guarded by mu
	reconnLatH  *obs.Histogram // guarded by mu
	gatherShort *obs.Counter   // guarded by mu
}

// linkMetrics caches one neighbor link's counter handles so the per-frame
// path does one map lookup, not seven registry lookups.
type linkMetrics struct {
	framesOut, bytesOut   *obs.Counter
	framesIn, bytesIn     *obs.Counter
	connects, disconnects *obs.Counter
	reconnects            *obs.Counter
}

type peerConn struct {
	writeMu sync.Mutex
	conn    net.Conn
	delayed []byte // guarded by writeMu; copy of a frame held back by FaultDelay
}

type inFrame struct {
	from  int
	round int
	frame []byte
}

// NewPeer creates a peer with the given id listening on addr
// (e.g. "127.0.0.1:0" for an ephemeral port).
func NewPeer(id int, addr string) (*Peer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: peer %d listen: %w", id, err)
	}
	return NewPeerFromListener(id, ln), nil
}

// NewPeerFromListener wraps an already-bound listener in a peer. Elastic
// clusters need this ordering: a node must know its listen address to
// advertise it to the coordinator, but only learns its id from the join
// response — so it listens first and builds the peer afterwards.
func NewPeerFromListener(id int, ln net.Listener) *Peer {
	p := &Peer{
		id:         id,
		listener:   ln,
		conns:      make(map[int]*peerConn),
		addrs:      make(map[int]string),
		dialing:    make(map[int]bool),
		stats:      make(map[int]*LinkStats),
		linkM:      make(map[int]*linkMetrics),
		downSince:  make(map[int]time.Time),
		inbox:      make(chan inFrame, 1024),
		membership: make(chan struct{}, 1),
		pending:    make(map[int]map[int][]byte),
		closed:     make(chan struct{}),
	}
	p.mu.Lock()
	p.initObsHandles()
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

// initObsHandles (re)binds the link-independent metric handles against the
// current observer (detached metrics when there is none). Caller holds
// p.mu.
func (p *Peer) initObsHandles() {
	p.gatherWaitH = p.obs.Histogram(obs.MGatherWait, obs.TimeBuckets)
	p.reconnLatH = p.obs.Histogram(obs.MReconnectSeconds, obs.TimeBuckets)
	p.gatherShort = p.obs.Counter(obs.MGatherIncomplete)
}

// SetObserver attaches a metrics registry and event log. Call before
// Connect; per-link series are labeled peer="<neighbor id>".
func (p *Peer) SetObserver(o *obs.Observer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = o
	p.initObsHandles()
	p.linkM = make(map[int]*linkMetrics) // rebind any pre-existing links
}

// linkMetricsFor returns (creating if needed) the metric handles for the
// link to nid. Caller holds p.mu.
func (p *Peer) linkMetricsFor(nid int) *linkMetrics {
	lm, ok := p.linkM[nid]
	if !ok {
		peer := strconv.Itoa(nid)
		lm = &linkMetrics{
			framesOut:   p.obs.Counter(obs.Label(obs.MLinkFramesSent, obs.LPeer, peer)),
			bytesOut:    p.obs.Counter(obs.Label(obs.MLinkBytesSent, obs.LPeer, peer)),
			framesIn:    p.obs.Counter(obs.Label(obs.MLinkFramesRecv, obs.LPeer, peer)),
			bytesIn:     p.obs.Counter(obs.Label(obs.MLinkBytesRecv, obs.LPeer, peer)),
			connects:    p.obs.Counter(obs.Label(obs.MLinkConnects, obs.LPeer, peer)),
			disconnects: p.obs.Counter(obs.Label(obs.MLinkDisconnects, obs.LPeer, peer)),
			reconnects:  p.obs.Counter(obs.Label(obs.MLinkReconnects, obs.LPeer, peer)),
		}
		p.linkM[nid] = lm
	}
	return lm
}

// ID returns this peer's node id.
func (p *Peer) ID() int { return p.id }

// Addr returns the listener address (use after NewPeer with port 0).
func (p *Peer) Addr() string { return p.listener.Addr().String() }

// BytesSent returns the total payload bytes written to sockets — the
// quantity the paper's testbed experiment records. Trace blocks and
// frame headers are excluded: the figure stays comparable across traced
// and untraced runs. A frame held back by FaultDelay counts when Send
// accepts it, so a round's Broadcast is charged for all of its frames.
func (p *Peer) BytesSent() int64 { return p.bytesSent.Load() }

// FramesSent returns the total number of frames written to sockets.
// Together with BytesSent it yields the ground truth for the tracer's
// bytes-saved-vs-full-send accounting.
func (p *Peer) FramesSent() int64 { return p.framesSent.Load() }

// SetTracer attaches a round tracer: every outbound frame gains a wire
// trace block and every inbound traced frame is recorded as a receive
// observation. May be called at any time; pass nil to disable.
func (p *Peer) SetTracer(t *trace.Tracer) { p.tracer.Store(t) }

// SetReconnectHandler registers fn to be called whenever a neighbor link
// transitions from down to up after having been connected before. Set it
// before Connect; it must be safe to call from transport goroutines.
func (p *Peer) SetReconnectHandler(fn func(nid int)) {
	p.mu.Lock()
	p.onReconnect = fn
	p.mu.Unlock()
}

// SetFaults installs a deterministic fault-injection plan consulted by
// Send. Pass nil to clear.
func (p *Peer) SetFaults(f *FaultSet) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// FirstRound blocks until a frame from a registered neighbor (see
// Connect) is buffered and returns the lowest round such a frame
// carries: a node joining a running cluster starts its round counter
// there. ok is false if no frame arrived within timeout or the peer
// closed. Like GatherStream, it must not run concurrently with itself or
// with GatherStream.
func (p *Peer) FirstRound(timeout time.Duration) (round int, ok bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if round, ok := p.lowestPendingRound(); ok {
			return round, true
		}
		select {
		case m := <-p.inbox:
			p.storePending(m)
		case <-p.membership:
		case <-timer.C:
			return 0, false
		case <-p.closed:
			return 0, false
		}
	}
}

// lowestPendingRound returns the lowest round of a buffered frame from a
// registered neighbor.
func (p *Peer) lowestPendingRound() (low int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pendingMu.Lock()
	defer p.pendingMu.Unlock()
	for r, byFrom := range p.pending {
		for from := range byFrom {
			if _, known := p.addrs[from]; known && (!ok || r < low) {
				low, ok = r, true
			}
		}
	}
	return low, ok
}

// Drop removes neighbor nid from the peer's neighbor set: the connection
// (if any) is closed, the stored address is forgotten so no dial loop
// revives the link, and GatherStream stops expecting frames from it. Used
// when an epoch reconfiguration removes a topology edge or a member
// leaves the cluster. Dropping an unknown neighbor is a no-op.
func (p *Peer) Drop(nid int) {
	p.mu.Lock()
	delete(p.addrs, nid)
	pc, ok := p.conns[nid]
	if ok {
		delete(p.conns, nid)
	}
	o := p.obs
	p.mu.Unlock()
	if ok {
		// The read loop's removeConn will find the registry no longer
		// holds pc and exit quietly; no dial loop is started because
		// the address is gone.
		pc.conn.Close()
		o.Emit(p.id, obs.EvLinkDrop, -1, nid, nil)
	}
	p.notifyMembership()
}

// Healthy reports whether a live connection to neighbor nid is currently
// registered.
func (p *Peer) Healthy(nid int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.conns[nid]
	return ok
}

// Stats returns a copy of the per-link connection lifecycle counters.
func (p *Peer) Stats() map[int]LinkStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]LinkStats, len(p.stats))
	for nid, st := range p.stats {
		out[nid] = *st
	}
	return out
}

// statsFor returns the (mutable) stats entry for nid. Caller holds p.mu.
func (p *Peer) statsFor(nid int) *LinkStats {
	st, ok := p.stats[nid]
	if !ok {
		st = &LinkStats{}
		p.stats[nid] = st
	}
	return st
}

// Connect registers the neighbors' addresses, starts a dial loop toward
// every higher-id neighbor that is neither connected nor already being
// dialed (the lower id dials each link; the higher id accepts), and waits
// until connections with all listed neighbors exist, or the timeout
// expires. The dial loops outlive a timeout: a neighbor that starts
// listening later is still connected, and a link that dies later is
// dialed again.
func (p *Peer) Connect(neighbors map[int]string, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	p.mu.Lock()
	for nid, addr := range neighbors {
		if nid == p.id {
			p.mu.Unlock()
			return fmt.Errorf("transport: peer %d listed as its own neighbor", p.id)
		}
		p.addrs[nid] = addr
		if _, up := p.conns[nid]; !up && nid > p.id {
			p.startDial(nid)
		}
	}
	p.mu.Unlock()
	// addConn's membership nudge wakes the wait, for dialed and accepted
	// links alike; one nudge is passed on afterwards in case a
	// GatherStream was blocked on it too.
	defer p.notifyMembership()
	for {
		missing := p.missing(neighbors)
		if missing == 0 {
			return nil
		}
		select {
		case <-p.membership:
		case <-timer.C:
			return fmt.Errorf("transport: peer %d timed out waiting for %d neighbor connection(s)", p.id, missing)
		case <-p.closed:
			return fmt.Errorf("transport: peer %d closed while connecting", p.id)
		}
	}
}

// missing counts the neighbors that have no connection.
func (p *Peer) missing(neighbors map[int]string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for nid := range neighbors {
		if _, ok := p.conns[nid]; !ok {
			n++
		}
	}
	return n
}

// dialOnce performs one capped dial attempt plus the hello handshake.
func (p *Peer) dialOnce(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialAttemptTimeout)
	if err != nil {
		return nil, err
	}
	// Hello: announce our id.
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(p.id))
	conn.SetWriteDeadline(time.Now().Add(dialAttemptTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		// Read the hello to learn the remote id.
		var hello [4]byte
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		p.addConn(int(binary.BigEndian.Uint32(hello[:])), conn)
	}
}

// addConn registers a connection for neighbor nid, replacing any
// connection the link still has registered, and ends the link's dial
// loop: the loop returns right after handing its connection here, so a
// failure of this connection may start the next one.
func (p *Peer) addConn(nid int, conn net.Conn) {
	// Disable Nagle explicitly on every registered conn, dialed or
	// accepted. Go's dialer does this by default, but the round loop's
	// latency budget depends on it (a delayed small frame stalls the
	// whole gather), so it is pinned here rather than left implicit.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		conn.Close()
		return
	default:
	}
	delete(p.dialing, nid)
	old, existed := p.conns[nid]
	if existed {
		// Replace: the old conn's readLoop will exit and see it has been
		// superseded (identity check in removeConn), so no dial loop is
		// started for it — and nothing is counted there: superseding a
		// registered conn is that conn's disconnect, accounted below.
		old.conn.Close()
	}
	pc := &peerConn{conn: conn}
	st := p.statsFor(nid)
	lm := p.linkMetricsFor(nid)
	if existed {
		st.Disconnects++
		lm.disconnects.Inc()
	}
	// A link heals in one of two ways: a new connection fills an empty
	// slot the link had before (the read loop already evicted the dead
	// conn), or — when the dialer's re-dial outraces this side's read
	// loop error — it replaces a connection that is still registered. The
	// initial dial never replaces anything, so a replacement is always a
	// reconnection and must fire the same down→up handling: frames may
	// have died with the old connection, and the neighbor needs the
	// full-parameter refresh.
	reconnected := existed || st.Connects > 0
	st.Connects++
	lm.connects.Inc()
	var downFor time.Duration
	if reconnected {
		st.Reconnects++
		lm.reconnects.Inc()
		if since, ok := p.downSince[nid]; ok {
			downFor = time.Since(since)
			delete(p.downSince, nid)
		}
	}
	p.conns[nid] = pc
	// wg.Add under p.mu, ordered against Close's close(p.closed) (also
	// under p.mu): either we observed closed above and bailed, or this Add
	// happens before Close's wg.Wait can see a zero counter.
	p.wg.Add(1)
	cb := p.onReconnect
	o, reconnH := p.obs, p.reconnLatH
	p.mu.Unlock()
	go p.readLoop(nid, pc)
	p.notifyMembership()
	if existed {
		o.Emit(p.id, obs.EvLinkDown, -1, nid, nil)
	}
	if reconnected {
		// downFor is zero when the remote re-dialed before our read loop
		// evicted the dead conn (replacement path): no downtime was
		// observable, so none is recorded in the latency histogram.
		if downFor > 0 {
			reconnH.Observe(downFor.Seconds())
		}
		if o.LogEnabled() {
			f := obs.GetFields()
			f["down_seconds"] = downFor.Seconds()
			o.Emit(p.id, obs.EvReconnect, -1, nid, f)
			obs.PutFields(f)
		}
	} else {
		o.Emit(p.id, obs.EvLinkUp, -1, nid, nil)
	}
	if reconnected && cb != nil {
		cb(nid)
	}
}

// removeConn evicts pc if it is still the registered connection for nid,
// and — if this peer dials the link — starts the dial loop so the link
// heals itself. The higher-id side waits to accept the re-dial.
func (p *Peer) removeConn(nid int, pc *peerConn) {
	p.mu.Lock()
	cur, ok := p.conns[nid]
	if !ok || cur != pc {
		// Superseded by a replacement connection; nothing to evict, and
		// addConn already counted the disconnect.
		p.mu.Unlock()
		pc.conn.Close()
		return
	}
	delete(p.conns, nid)
	p.statsFor(nid).Disconnects++
	p.linkMetricsFor(nid).disconnects.Inc()
	p.downSince[nid] = time.Now()
	o := p.obs
	if _, wanted := p.addrs[nid]; wanted && nid > p.id {
		p.startDial(nid)
	}
	p.mu.Unlock()
	pc.conn.Close()
	o.Emit(p.id, obs.EvLinkDown, -1, nid, nil)
	p.notifyMembership()
}

// startDial starts the dial loop toward nid unless one is already running
// or the peer is closing. Caller holds p.mu, which orders the wg.Add
// against Close (see addConn).
func (p *Peer) startDial(nid int) {
	select {
	case <-p.closed:
		return
	default:
	}
	if p.dialing[nid] {
		return
	}
	p.dialing[nid] = true
	p.wg.Add(1)
	go p.dialLoop(nid)
}

// dialLoop dials the link to nid — at once, then with exponential backoff
// and jitter after each failure — until a connection is registered, the
// neighbor is Dropped, or the peer closes. It is the link's only dialer;
// peers start in arbitrary order, so the target may not be listening yet.
func (p *Peer) dialLoop(nid int) {
	defer p.wg.Done()
	backoff := reconnectBaseDelay
	// One timer reused across retries instead of a time.After per attempt:
	// a loop can spin for the whole lifetime of a partition, and each
	// time.After would feed the runtime a garbage timer.
	var retry *time.Timer
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()
	for {
		p.mu.Lock()
		addr, wanted := p.addrs[nid]
		if !wanted {
			delete(p.dialing, nid)
		}
		p.mu.Unlock()
		if !wanted {
			return // neighbor was Dropped; stop trying to revive the link
		}
		conn, err := p.dialOnce(addr)
		if err == nil {
			p.addConn(nid, conn)
			return
		}
		// Full jitter on top of the exponential base keeps a partitioned
		// clique from re-dialing in lockstep.
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if retry == nil {
			retry = time.NewTimer(sleep)
		} else {
			retry.Reset(sleep)
		}
		select {
		case <-p.closed:
			return
		case <-retry.C:
		}
		backoff *= 2
		if backoff > reconnectMaxDelay {
			backoff = reconnectMaxDelay
		}
	}
}

// notifyMembership nudges a blocked GatherStream to re-evaluate the connection
// set. Non-blocking: a single pending nudge is enough.
func (p *Peer) notifyMembership() {
	select {
	case p.membership <- struct{}{}:
	default:
	}
}

// readLoop parses length-prefixed frames: [len u32][round u32][payload].
// On any read error the connection is evicted from the registry (so GatherStream
// stops counting it) and the link's dialer dials it again.
func (p *Peer) readLoop(from int, pc *peerConn) {
	defer p.wg.Done()
	defer p.removeConn(from, pc)
	p.mu.Lock()
	lm := p.linkMetricsFor(from)
	p.mu.Unlock()
	conn := pc.conn
	var header [8]byte
	var block [trace.BlockBytes]byte
	for {
		if _, err := io.ReadFull(conn, header[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(header[:4])
		rawRound := binary.BigEndian.Uint32(header[4:8])
		round := int(rawRound &^ frameFlagTrace)
		traced := rawRound&frameFlagTrace != 0
		if size > maxFrameBytes {
			return
		}
		var ctx trace.Context
		if traced {
			if size < trace.BlockBytes {
				return
			}
			// Read the block into the stack array, not into the pooled
			// frame: slicing the block off a pooled buffer would shrink its
			// capacity a little more on every recycle.
			if _, err := io.ReadFull(conn, block[:]); err != nil {
				return
			}
			c, err := trace.ParseBlock(block[:])
			if err != nil {
				return
			}
			ctx = c
			size -= trace.BlockBytes
		}
		frame := getFrameBuf(int(size))
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		lm.framesIn.Inc()
		lm.bytesIn.Add(int64(size))
		if traced {
			p.tracer.Load().Recv(round, from, int(size), ctx, time.Now())
		}
		select {
		case p.inbox <- inFrame{from: from, round: round, frame: frame}:
		case <-p.closed:
			return
		}
	}
}

// Send transmits a round-tagged frame to one neighbor. A send to a
// currently-down link fails fast (the caller should treat the neighbor as
// a straggler for the round); the background dial loop heals the link.
// Send has finished with frame when it returns, so the caller may reuse it.
func (p *Peer) Send(to, round int, frame []byte) error {
	p.mu.Lock()
	faults := p.faults
	p.mu.Unlock()
	var delay time.Duration
	if faults != nil {
		if rule, ok := faults.take(to, round); ok {
			if rule.Action != FaultDelay {
				return p.applyFault(to, round, rule)
			}
			delay = rule.Delay
		}
	}
	p.mu.Lock()
	pc, ok := p.conns[to]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("transport: peer %d has no connection to %d", p.id, to)
	}
	lm := p.linkMetricsFor(to)
	p.mu.Unlock()
	if delay > 0 {
		return p.sendDelayed(pc, lm, to, round, frame, delay)
	}
	pc.writeMu.Lock()
	defer pc.writeMu.Unlock()
	if err := p.write(pc, to, round, frame); err != nil {
		return err
	}
	p.countSent(lm, len(frame))
	return nil
}

// write puts one frame on pc's connection. Caller holds pc.writeMu.
func (p *Peer) write(pc *peerConn, to, round int, frame []byte) error {
	tr := p.tracer.Load()
	// header is sized for the traced layout; n is how much of it this
	// frame actually uses. With tracing off the bytes written are
	// identical to the pre-trace wire format.
	var header [8 + trace.BlockBytes]byte
	n := 8
	size, wireRound := uint32(len(frame)), uint32(round)
	if tr.Enabled() {
		size += trace.BlockBytes
		wireRound |= frameFlagTrace
		trace.PutBlock(header[8:], trace.Context{
			TraceID:       trace.ID(p.id, round),
			Node:          p.id,
			Round:         round,
			SendUnixNanos: time.Now().UnixNano(),
		})
		n += trace.BlockBytes
	}
	binary.BigEndian.PutUint32(header[:4], size)
	binary.BigEndian.PutUint32(header[4:8], wireRound)
	if _, err := pc.conn.Write(header[:n]); err != nil {
		return fmt.Errorf("transport: peer %d send header to %d: %w", p.id, to, err)
	}
	if _, err := pc.conn.Write(frame); err != nil {
		return fmt.Errorf("transport: peer %d send frame to %d: %w", p.id, to, err)
	}
	return nil
}

// countSent charges one sent frame of n payload bytes to the peer and
// link counters.
func (p *Peer) countSent(lm *linkMetrics, n int) {
	p.bytesSent.Add(int64(n))
	p.framesSent.Add(1)
	lm.framesOut.Inc()
	lm.bytesOut.Add(int64(n))
}

// Broadcast sends the frame to every connected neighbor, one Send per
// link in ascending id order, and returns the first error encountered
// (continuing to the rest regardless), i.e. the lowest-id failing
// neighbor's. Every Send has finished with frame when Broadcast returns,
// so the caller may reuse it at once. Neighbors whose links are down are
// simply skipped — they are already counted as stragglers by the
// receiver side.
func (p *Peer) Broadcast(round int, frame []byte) error {
	ids := p.expectedConns()
	var firstErr error
	for _, nid := range ids {
		if err := p.Send(nid, round, frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// expectedConns returns the ids of connected neighbors that are also
// *expected* — registered via Connect (and not since Dropped). A live
// connection from a peer outside the expected set (an elastically joining
// node that dialed ahead of the epoch switch) is neither broadcast to nor
// waited for; its buffered frames become visible once an epoch adds it.
func (p *Peer) expectedConns() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(p.conns))
	for nid := range p.conns {
		if _, ok := p.addrs[nid]; ok {
			ids = append(ids, nid)
		}
	}
	// Ascending order, not map-iteration order, so Broadcast visits links
	// the same way run to run and the error it reports when several links
	// fail (the lowest-id neighbor's) is reproducible.
	sort.Ints(ids)
	return ids
}

// GatherStream blocks until a frame for the given round has arrived from
// every currently connected *expected* neighbor (see expectedConns), or
// the timeout elapses, invoking deliver with (sender, frame) as each
// frame arrives — which is what lets a caller decode and integrate frame
// i while frame i+1 is still on the wire. deliver returning false aborts
// the stream early. The return values are the number of frames delivered
// and the number the stream was waiting for when it returned (got < want
// means stragglers).
//
// At most one frame per sender is delivered per call; frames from other
// rounds are buffered for their own calls. A sender with a frame for a
// later round already buffered is not waited for: a link is FIFO and
// rounds only grow, so its frame for this round is never coming (it
// linked up after sending it, or the frame was dropped). Frames from senders outside
// the expected neighbor set are withheld, left buffered for a later
// epoch; the expected count is re-evaluated on every membership change,
// so a neighbor that dies mid-round costs at most this one timeout —
// subsequent rounds no longer wait for it. Frame ownership transfers to
// deliver — the caller recycles (or retains) each frame it is handed — so
// a frame is delivered once: gather each round once, then ForgetRound it.
//
// GatherStream and the deliver callback run on the caller's goroutine;
// the transport never calls deliver concurrently.
func (p *Peer) GatherStream(round int, timeout time.Duration, deliver func(from int, frame []byte) bool) (got, want int) {
	start := time.Now()
	got, want = p.gatherStream(round, timeout, deliver)
	wait := time.Since(start).Seconds()
	p.mu.Lock()
	waitH, short, o := p.gatherWaitH, p.gatherShort, p.obs
	p.mu.Unlock()
	waitH.Observe(wait)
	if got < want {
		short.Inc()
	}
	// Skip the field map entirely when no event log is attached: this is
	// once-per-round on the hot path, and the map literal was the last
	// steady-state allocation in the transport.
	if o.LogEnabled() {
		f := obs.GetFields()
		f["seconds"] = wait
		f["got"] = got
		f["want"] = want
		o.Emit(p.id, obs.EvGatherWait, round, -1, f)
		obs.PutFields(f)
	}
	return got, want
}

// gatherStream implements GatherStream. Frames from senders outside the
// expected neighbor set are withheld (left buffered): handing them up
// would make the engine reject the round, since a not-yet-reconfigured
// engine treats them as non-neighbors.
func (p *Peer) gatherStream(round int, timeout time.Duration, deliver func(from int, frame []byte) bool) (int, int) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()

	seen := p.streamSeen
	if seen == nil {
		seen = make(map[int]bool, 8)
		p.streamSeen = seen
	}
	clear(seen)

	got := 0
	// flush hands every buffered, expected, not-yet-delivered frame to
	// deliver (outside all locks) and reports the current want count and
	// how many of those senders have moved past the round.
	flush := func() (want, passed int, aborted bool) {
		want, passed, ready := p.readyFrames(round, seen)
		for _, m := range ready {
			got++
			if !deliver(m.from, m.frame) {
				return want, passed, true
			}
		}
		return want, passed, false
	}
	for {
		want, passed, aborted := flush()
		if aborted || got+passed >= want {
			return got, want
		}
		select {
		case m := <-p.inbox:
			p.storePending(m)
		case <-p.membership:
			// Connection set changed; recompute want.
		case <-deadline.C:
			want, _, _ := flush()
			return got, want
		case <-p.closed:
			want, _, _ := flush()
			return got, want
		}
	}
}

// readyFrames stages (into reusable scratch) the frames buffered for
// round from expected senders not yet marked in seen, marking them, and
// returns the current expected-sender count and how many of the
// still-unseen ones have a frame for a later round buffered. Staged
// frames are sorted by sender id so delivery order is deterministic when
// several frames are already buffered. The frames themselves stay in the
// pending bucket until ForgetRound.
func (p *Peer) readyFrames(round int, seen map[int]bool) (int, int, []inFrame) {
	p.mu.Lock()
	keep := p.streamKeep
	if keep == nil {
		keep = make(map[int]bool, len(p.conns))
		p.streamKeep = keep
	}
	clear(keep)
	want := 0
	for nid := range p.conns {
		if _, ok := p.addrs[nid]; ok {
			keep[nid] = true
			want++
		}
	}
	p.mu.Unlock()

	ready := p.streamReady[:0]
	passed := 0
	p.pendingMu.Lock()
	for from, frame := range p.pending[round] {
		if keep[from] && !seen[from] {
			seen[from] = true
			ready = append(ready, inFrame{from: from, round: round, frame: frame})
		}
	}
	for r, byFrom := range p.pending {
		for from := range byFrom {
			if r > round && keep[from] && !seen[from] {
				keep[from] = false // count each sender once
				passed++
			}
		}
	}
	p.pendingMu.Unlock()
	// Insertion sort: degree-sized, already mostly sorted, no allocation.
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && ready[j].from < ready[j-1].from; j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}
	p.streamReady = ready
	return want, passed, ready
}

func (p *Peer) storePending(m inFrame) {
	p.pendingMu.Lock()
	defer p.pendingMu.Unlock()
	byFrom, ok := p.pending[m.round]
	if !ok {
		byFrom = make(map[int][]byte)
		p.pending[m.round] = byFrom
	}
	byFrom[m.from] = m.frame
}

// ForgetRound discards buffered frames for rounds at or before the given
// round. Call it after integrating a round to bound memory.
func (p *Peer) ForgetRound(round int) {
	p.pendingMu.Lock()
	defer p.pendingMu.Unlock()
	for r := range p.pending {
		if r <= round {
			delete(p.pending, r)
		}
	}
}

// Close shuts down the listener, all connections, and any dial loops.
func (p *Peer) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		close(p.closed)
		// Peer connections are often already dead (that is what the
		// reconnect machinery is for), so their close errors are noise;
		// the listener close error is the one worth reporting.
		p.closeErr = p.listener.Close()
		for _, pc := range p.conns {
			pc.conn.Close()
		}
		p.mu.Unlock()
	})
	p.wg.Wait()
	return p.closeErr
}
