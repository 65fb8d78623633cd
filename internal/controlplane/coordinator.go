package controlplane

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/weights"
)

// CoordinatorConfig configures the cluster coordinator. Zero values select
// the documented defaults.
type CoordinatorConfig struct {
	// ListenAddr is the control-plane TCP address ("127.0.0.1:0" for an
	// ephemeral port).
	ListenAddr string
	// MinMembers defers the first epoch until this many members have
	// joined (default 2), so a cluster bootstraps deterministically: every
	// founding node blocks in Join until the quorum is complete and then
	// starts training at round 0 together.
	MinMembers int
	// AttachDegree is how many existing members a joining node is linked
	// to (default 2, capped at the current member count). Attachment
	// prefers the lowest-degree members, keeping the topology balanced.
	AttachDegree int
	// HeartbeatTimeout evicts members that have not heartbeat for this
	// long (0 disables eviction; then only graceful leaves shrink the
	// cluster).
	HeartbeatTimeout time.Duration
	// Bound parameterizes the convergence-rate bound (paper eq. 17) used
	// to pick the best W candidate.
	Bound weights.BoundParams
	// WeightOpt tunes the projected-subgradient W optimizer.
	WeightOpt weights.Options
	// Logf, when set, receives membership and epoch diagnostics.
	Logf func(format string, args ...any)
	// Obs, when set, receives coordinator metrics (member count, epoch id,
	// λ̄max, optimization time) and membership events.
	Obs *obs.Observer
	// TraceRounds, when positive, enables cluster-wide trace aggregation:
	// members push round digests on their heartbeats, the coordinator
	// merges the most recent TraceRounds rounds, estimates per-member
	// clock offsets, and serves the merged view via Trace().
	TraceRounds int
	// ClockSyncEvery is the clock-probe period when tracing is enabled
	// (default 2s). Each member is probed on admission and then
	// periodically, keeping the offset model fresh against drift.
	ClockSyncEvery time.Duration
}

func (cfg CoordinatorConfig) withDefaults() CoordinatorConfig {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.MinMembers <= 0 {
		cfg.MinMembers = 2
	}
	if cfg.AttachDegree <= 0 {
		cfg.AttachDegree = 2
	}
	if cfg.ClockSyncEvery <= 0 {
		cfg.ClockSyncEvery = 2 * time.Second
	}
	return cfg
}

// member is the coordinator's book-keeping for one admitted node.
type member struct {
	id      int
	addr    string
	conn    net.Conn
	writeMu sync.Mutex

	// Liveness bookkeeping, written by connection goroutines and read
	// by the eviction sweep.
	lastBeat time.Time // guarded by Coordinator.mu

	// offsetG exposes this member's estimated clock offset (labeled
	// node="<id>"); bound once at admission, detached when unobserved.
	offsetG *obs.Gauge
}

func (m *member) push(typ msgType, payload any, timeout time.Duration) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	return writeFrame(m.conn, typ, payload, timeout)
}

// coordMetrics caches the coordinator's metric handles.
type coordMetrics struct {
	epoch, members, lambda   *obs.Gauge
	joins, leaves, evictions *obs.Counter
	broadcasts               *obs.Counter
	optSeconds               *obs.Histogram

	// Trace aggregation (all detached when tracing or observation is off).
	traceDigests *obs.Counter
	bytesSaved   *obs.Counter
	completeness *obs.Gauge
	straggler    *obs.Gauge
	stragglerLag *obs.Gauge
}

// Coordinator is the control-plane service: it admits and removes
// members, owns the authoritative topology, re-optimizes W on every
// membership change, and pushes versioned epochs to all members.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu      sync.Mutex
	members map[int]*member // guarded by mu
	order   []int           // guarded by mu; member ids sorted ascending; order[v] is topology vertex v
	topo    *graph.Graph    // guarded by mu
	nextID  int             // guarded by mu
	epoch   *Epoch          // guarded by mu; latest published epoch (nil before the first)
	started bool            // guarded by mu; the first epoch has been published

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error // set once inside closeOnce.Do, read after it
	wg        sync.WaitGroup

	met coordMetrics

	// agg merges member round digests into the cluster trace view; nil
	// when TraceRounds is 0 (every trace.Aggregator method is nil-safe).
	agg *trace.Aggregator
}

// NewCoordinator starts a coordinator listening on cfg.ListenAddr.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: coordinator listen: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		members: make(map[int]*member),
		topo:    graph.New(0),
		closed:  make(chan struct{}),
		met: coordMetrics{
			epoch:      cfg.Obs.Gauge(obs.MEpoch),
			members:    cfg.Obs.Gauge(obs.MMembers),
			lambda:     cfg.Obs.Gauge(obs.MLambdaBarMax),
			joins:      cfg.Obs.Counter(obs.MJoins),
			leaves:     cfg.Obs.Counter(obs.MLeaves),
			evictions:  cfg.Obs.Counter(obs.MEvictions),
			broadcasts: cfg.Obs.Counter(obs.MEpochsBroadcast),
			optSeconds: cfg.Obs.Histogram(obs.MWeightOptSeconds, obs.TimeBuckets),

			traceDigests: cfg.Obs.Counter(obs.MTraceDigests),
			bytesSaved:   cfg.Obs.Counter(obs.MTraceBytesSaved),
			completeness: cfg.Obs.Gauge(obs.MTraceCompleteness),
			straggler:    cfg.Obs.Gauge(obs.MTraceStraggler),
			stragglerLag: cfg.Obs.Gauge(obs.MTraceStragglerLag),
		},
	}
	if cfg.TraceRounds > 0 {
		c.agg = trace.NewAggregator(cfg.TraceRounds)
	}
	c.wg.Add(1)
	go c.acceptLoop()
	if cfg.HeartbeatTimeout > 0 {
		c.wg.Add(1)
		go c.evictionLoop()
	}
	if c.agg != nil {
		c.wg.Add(1)
		go c.clockLoop()
	}
	return c, nil
}

// Trace returns the coordinator's trace aggregator, nil unless
// CoordinatorConfig.TraceRounds enabled aggregation. Serve it with
// trace.ClusterHandler for the merged /trace endpoint.
func (c *Coordinator) Trace() *trace.Aggregator { return c.agg }

// Addr returns the coordinator's control-plane listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch returns the id of the latest published epoch (0 before the
// first).
func (c *Coordinator) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == nil {
		return 0
	}
	return c.epoch.ID
}

// CurrentEpoch returns the latest published epoch, or nil before the
// first. Epochs are immutable once published; callers must not mutate
// the returned value.
func (c *Coordinator) CurrentEpoch() *Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Members returns the current member ids, sorted.
func (c *Coordinator) Members() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.order...)
}

// Close shuts down the coordinator: the listener, every member control
// connection, and the background loops.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		close(c.closed)
		// Member connections may already be gone (eviction, crashes);
		// only the listener close error is worth surfacing.
		c.closeErr = c.ln.Close()
		for _, m := range c.members {
			m.conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return c.closeErr
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
				continue
			}
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn serves one control connection: a join must come first, then
// heartbeats and at most one leave.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	typ, body, err := readFrame(conn, 30*time.Second)
	if err != nil || typ != msgJoin {
		conn.Close()
		return
	}
	m, err := c.admit(conn, body)
	if err != nil {
		writeFrame(conn, msgReject, rejectResp{Reason: err.Error()}, 5*time.Second)
		conn.Close()
		return
	}
	for {
		typ, body, err := readFrame(conn, 0)
		if err != nil {
			// Control connection died. The member may still be training;
			// heartbeat eviction (if enabled) reclaims it.
			c.logf("coordinator: control connection to member %d lost: %v", m.id, err)
			return
		}
		switch typ {
		case msgHeartbeat:
			c.beat(m, body)
		case msgClockEcho:
			c.clockEchoFrom(m, body, time.Now().UnixNano())
		case msgLeave:
			if c.leave(m) {
				conn.Close()
				return
			}
		default:
			c.logf("coordinator: unexpected %v from member %d", typ, m.id)
		}
	}
}

// admit registers a joining node: assigns the next id, attaches it to the
// topology, replies join_ok, and publishes a new epoch (unless the
// founding quorum is still incomplete).
func (c *Coordinator) admit(conn net.Conn, body []byte) (*member, error) {
	var req joinReq
	if err := unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Addr == "" {
		return nil, fmt.Errorf("join request carries no advertised address")
	}
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		return nil, fmt.Errorf("coordinator is shut down")
	default:
	}
	m := &member{id: c.nextID, addr: req.Addr, conn: conn, lastBeat: time.Now()}
	if c.agg != nil {
		m.offsetG = c.cfg.Obs.Gauge(obs.Label(obs.MClockOffset, obs.LNode, strconv.Itoa(m.id)))
	}
	c.nextID++
	c.members[m.id] = m
	// New ids are monotonic, so appending keeps order sorted and the new
	// vertex index is N−1.
	c.order = append(c.order, m.id)
	v := c.topo.AddVertex()
	for _, u := range c.attachTargets(v) {
		c.topo.AddEdge(v, u)
	}
	c.met.joins.Inc()
	c.met.members.Set(float64(len(c.members)))
	c.agg.SetMembers(c.order)
	c.cfg.Obs.Emit(-1, obs.EvMemberJoin, -1, m.id, map[string]any{"addr": m.addr})
	c.logf("coordinator: member %d joined from %s (%d members)", m.id, m.addr, len(c.members))
	epoch, targets := c.maybeNewEpochLocked()
	c.mu.Unlock()

	if err := m.push(msgJoinOK, joinResp{ID: m.id}, 5*time.Second); err != nil {
		return nil, fmt.Errorf("reply to join: %v", err)
	}
	c.broadcast(epoch, targets)
	if c.agg != nil {
		// Probe immediately so the new member has an offset estimate before
		// its first digests arrive, not ClockSyncEvery later.
		c.probeClock(m)
	}
	return m, nil
}

// attachTargets picks which existing vertices a new vertex v links to:
// the AttachDegree lowest-degree members (ties to the lowest vertex), the
// balanced-growth policy. Caller holds c.mu.
func (c *Coordinator) attachTargets(v int) []int {
	candidates := make([]int, 0, v)
	for u := 0; u < v; u++ {
		candidates = append(candidates, u)
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return c.topo.Degree(candidates[i]) < c.topo.Degree(candidates[j])
	})
	if len(candidates) > c.cfg.AttachDegree {
		candidates = candidates[:c.cfg.AttachDegree]
	}
	return candidates
}

func (c *Coordinator) beat(m *member, body []byte) {
	var hb heartbeat
	if err := unmarshal(body, &hb); err != nil {
		c.logf("coordinator: bad heartbeat from member %d: %v", m.id, err)
		return
	}
	c.mu.Lock()
	m.lastBeat = time.Now()
	c.mu.Unlock()
	c.ingestTraces(m, hb.Traces)
}

// ingestTraces merges heartbeat-pushed round digests into the aggregator
// and refreshes the cluster-trace gauges from the latest merged round.
func (c *Coordinator) ingestTraces(m *member, digests []trace.RoundDigest) {
	if c.agg == nil || len(digests) == 0 {
		return
	}
	for _, d := range digests {
		if d.Node != m.id {
			// A digest must describe the member that sent it; anything else
			// is a bug or a spoof, and either way must not pollute the view.
			c.logf("coordinator: member %d pushed a digest for node %d; dropped", m.id, d.Node)
			continue
		}
		if c.agg.Add(d) {
			c.met.traceDigests.Inc()
			if saved := d.BytesFullSend - d.BytesSent; saved > 0 {
				c.met.bytesSaved.Add(saved)
			}
		}
	}
	if latest := c.agg.Latest(); latest >= 0 {
		if cr, ok := c.agg.Round(latest); ok {
			c.met.completeness.Set(cr.Completeness)
			c.met.straggler.Set(float64(cr.Straggler))
			c.met.stragglerLag.Set(time.Duration(cr.StragglerLagNanos).Seconds())
		}
	}
}

// clockEchoFrom feeds one probe reply into the offset model. t3 is the
// arrival timestamp, taken before JSON decoding so parse time does not
// inflate the apparent round trip.
func (c *Coordinator) clockEchoFrom(m *member, body []byte, t3 int64) {
	if c.agg == nil {
		return
	}
	var echo clockEcho
	if err := unmarshal(body, &echo); err != nil {
		c.logf("coordinator: bad clock echo from member %d: %v", m.id, err)
		return
	}
	c.agg.ObserveClock(m.id, echo.T0, echo.T1, echo.T2, t3)
	est := c.agg.Offset(m.id)
	m.offsetG.Set(time.Duration(est.OffsetNanos).Seconds())
	if c.cfg.Obs.LogEnabled() {
		f := obs.GetFields()
		f["offset_seconds"] = time.Duration(est.OffsetNanos).Seconds()
		f["delay_seconds"] = time.Duration(est.DelayNanos).Seconds()
		c.cfg.Obs.Emit(-1, obs.EvClockSync, -1, m.id, f)
		obs.PutFields(f)
	}
}

// clockLoop periodically probes every member's clock. Echo handling
// happens on the members' connection goroutines (clockEchoFrom).
func (c *Coordinator) clockLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ClockSyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		targets := make([]*member, 0, len(c.members))
		for _, m := range c.members {
			targets = append(targets, m)
		}
		c.mu.Unlock()
		for _, m := range targets {
			c.probeClock(m)
		}
	}
}

// probeClock sends one clock probe; failures are tolerated (the next
// tick retries, and a dead connection is heartbeat-eviction's problem).
func (c *Coordinator) probeClock(m *member) {
	if err := m.push(msgClockProbe, clockProbe{T0: time.Now().UnixNano()}, 5*time.Second); err != nil {
		c.logf("coordinator: clock probe to member %d: %v", m.id, err)
	}
}

// leave handles a graceful departure request. It returns true when the
// member was removed (the caller closes the connection); a leave that
// would disconnect the remaining topology is rejected and the member
// stays.
func (c *Coordinator) leave(m *member) bool {
	c.mu.Lock()
	v := c.vertexOf(m.id)
	if v < 0 {
		c.mu.Unlock()
		m.push(msgLeaveOK, struct{}{}, 5*time.Second)
		return true
	}
	// Reject reconfigurations that would disconnect the graph: the
	// remaining members could no longer reach consensus.
	probe := c.topo.Clone()
	probe.RemoveVertex(v)
	if !probe.IsConnected() {
		c.mu.Unlock()
		c.logf("coordinator: rejecting leave of member %d: topology would disconnect", m.id)
		m.push(msgReject, rejectResp{
			Reason: fmt.Sprintf("leave of member %d would disconnect the topology", m.id),
		}, 5*time.Second)
		return false
	}
	c.removeLocked(m.id, "leave")
	c.met.leaves.Inc()
	epoch, targets := c.maybeNewEpochLocked()
	c.mu.Unlock()
	m.push(msgLeaveOK, struct{}{}, 5*time.Second)
	c.broadcast(epoch, targets)
	return true
}

// vertexOf returns the topology vertex of member id, or -1. Caller holds
// c.mu.
func (c *Coordinator) vertexOf(id int) int {
	for v, mid := range c.order {
		if mid == id {
			return v
		}
	}
	return -1
}

// removeLocked deletes a member from the books and the topology,
// repairing connectivity if the removal split the graph (possible only
// for evictions — leaves are rejected instead). Caller holds c.mu.
func (c *Coordinator) removeLocked(id int, reason string) {
	v := c.vertexOf(id)
	if v < 0 {
		return
	}
	c.topo.RemoveVertex(v)
	c.order = append(c.order[:v], c.order[v+1:]...)
	delete(c.members, id)
	c.repairLocked()
	c.met.members.Set(float64(len(c.members)))
	c.agg.SetMembers(c.order)
	c.cfg.Obs.Emit(-1, obs.EvMemberLeave, -1, id, map[string]any{"reason": reason})
	c.logf("coordinator: member %d removed (%s; %d members remain)", id, reason, len(c.members))
}

// repairLocked reconnects a split topology by bridging components with
// new edges (lowest-degree vertex of each side). An eviction is a fait
// accompli — the node is gone whether or not the graph liked it — so the
// coordinator must heal rather than reject. Caller holds c.mu.
func (c *Coordinator) repairLocked() {
	for c.topo.N() > 1 && !c.topo.IsConnected() {
		comp := components(c.topo)
		a := lowestDegree(c.topo, comp[0])
		b := lowestDegree(c.topo, comp[1])
		c.topo.AddEdge(a, b)
		c.logf("coordinator: bridged split topology with edge {%d,%d}", a, b)
	}
}

// components returns the connected components of g as vertex lists.
func components(g *graph.Graph) [][]int {
	seen := make([]bool, g.N())
	var out [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, u := range g.Neighbors(comp[i]) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

func lowestDegree(g *graph.Graph, comp []int) int {
	best := comp[0]
	for _, v := range comp[1:] {
		if g.Degree(v) < g.Degree(best) {
			best = v
		}
	}
	return best
}

// evictionLoop removes members whose heartbeats stopped.
func (c *Coordinator) evictionLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		var dead []*member
		for _, m := range c.members {
			if time.Since(m.lastBeat) > c.cfg.HeartbeatTimeout {
				dead = append(dead, m)
			}
		}
		for _, m := range dead {
			c.removeLocked(m.id, "heartbeat timeout")
			c.met.evictions.Inc()
		}
		var epoch *Epoch
		var targets []*member
		if len(dead) > 0 {
			epoch, targets = c.maybeNewEpochLocked()
		}
		c.mu.Unlock()
		for _, m := range dead {
			m.conn.Close()
		}
		c.broadcast(epoch, targets)
	}
}

// maybeNewEpochLocked recomputes W over the current topology and builds
// the next epoch, returning it plus the members to push it to — or (nil,
// nil) while the founding quorum is incomplete or the cluster is empty.
// Caller holds c.mu; the returned epoch is broadcast after unlocking.
func (c *Coordinator) maybeNewEpochLocked() (*Epoch, []*member) {
	if len(c.members) == 0 || (!c.started && len(c.members) < c.cfg.MinMembers) {
		return nil, nil
	}
	w, lambda, objective := c.optimizeLocked()

	id := 1
	if c.epoch != nil {
		id = c.epoch.ID + 1
	}
	ep := &Epoch{ID: id, LambdaBarMax: lambda, Objective: objective}
	for v, mid := range c.order {
		m := c.members[mid]
		peers := make([]int, 0, c.topo.Degree(v))
		for _, u := range c.topo.Neighbors(v) {
			peers = append(peers, c.order[u])
		}
		ep.Members = append(ep.Members, EpochMember{
			ID:    m.id,
			Addr:  m.addr,
			Peers: peers,
			Row:   w.Row(v),
		})
	}
	c.epoch = ep
	c.started = true
	c.met.epoch.Set(float64(ep.ID))
	c.met.lambda.Set(lambda)
	c.met.broadcasts.Inc()
	c.cfg.Obs.Emit(-1, obs.EvEpochBroadcast, -1, -1, map[string]any{
		"epoch":          ep.ID,
		"members":        len(ep.Members),
		"lambda_bar_max": lambda,
		"objective":      objective,
	})
	c.logf("coordinator: epoch %d: %d members, λ̄max %.4f (%s)",
		ep.ID, len(ep.Members), lambda, objective)
	targets := make([]*member, 0, len(c.members))
	for _, mid := range c.order {
		targets = append(targets, c.members[mid])
	}
	return ep, targets
}

// optimizeLocked runs the paper's centralized weight-matrix optimization
// over the current topology, falling back to Metropolis if the optimizer
// fails. Caller holds c.mu.
func (c *Coordinator) optimizeLocked() (w *linalg.Matrix, lambdaBarMax float64, objective string) {
	if c.topo.N() == 1 {
		// A solo member mixes only with itself: W = [1]. The spectral
		// machinery has nothing to optimize.
		w := linalg.NewMatrix(1, 1)
		w.Set(0, 0, 1)
		return w, 1, weights.MetropolisBaseline.String()
	}
	start := time.Now()
	res, err := weights.OptimizeBest(c.topo, c.cfg.Bound, c.cfg.WeightOpt)
	c.met.optSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		// Metropolis is always valid; an optimizer failure degrades the
		// convergence rate, never correctness.
		c.logf("coordinator: weight optimization failed (%v); using Metropolis", err)
		m := weights.Metropolis(c.topo, 0)
		sp, specErr := linalg.AnalyzeSpectrum(m)
		lambda := 1.0
		if specErr == nil {
			lambda = sp.LambdaBarMax
		}
		return m, lambda, weights.MetropolisBaseline.String()
	}
	return res.W, res.Spectrum.LambdaBarMax, res.Objective.String()
}

// broadcast pushes an epoch to the given members. Push failures are
// logged and tolerated: a member with a dead control connection misses
// epochs and is eventually reclaimed by heartbeat eviction.
func (c *Coordinator) broadcast(ep *Epoch, targets []*member) {
	if ep == nil {
		return
	}
	for _, m := range targets {
		if err := m.push(msgEpoch, ep, 5*time.Second); err != nil {
			c.logf("coordinator: pushing epoch %d to member %d: %v", ep.ID, m.id, err)
		}
	}
}

func unmarshal(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("controlplane: decode payload: %w", err)
	}
	return nil
}
