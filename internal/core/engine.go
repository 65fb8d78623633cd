package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
)

// SendPolicy selects what an engine transmits each round.
type SendPolicy int

const (
	// SendSelected is full SNAP: withhold parameters whose accumulated
	// change is below the APE controller's threshold.
	SendSelected SendPolicy = iota
	// SendChanged is SNAP-0: send every parameter that changed at all
	// (APE threshold pinned to zero).
	SendChanged
	// SendAll is SNO (select-neighbors-only): transmit the entire
	// parameter vector every round.
	SendAll
)

// String implements fmt.Stringer.
func (p SendPolicy) String() string {
	switch p {
	case SendSelected:
		return "snap"
	case SendChanged:
		return "snap-0"
	case SendAll:
		return "sno"
	default:
		return fmt.Sprintf("SendPolicy(%d)", int(p))
	}
}

// EngineConfig configures one node's EXTRA engine.
type EngineConfig struct {
	// ID is this node's index.
	ID int
	// Model is the shared model architecture.
	Model model.Model
	// Data is this node's local training partition.
	Data *dataset.Dataset
	// Alpha is the EXTRA step size α.
	Alpha float64
	// WRow is row ID of the weight matrix W: WRow[j] is w_{ID,j}. Only the
	// diagonal and neighbor entries may be nonzero.
	WRow linalg.Vector
	// Neighbors lists the node ids with nonzero off-diagonal weight.
	Neighbors []int
	// BatchSize limits the per-iteration gradient batch (0 = full local
	// data, the deterministic EXTRA setting).
	BatchSize int
	// DGD runs classic decentralized gradient descent (Nedić-Ozdaglar)
	// instead of EXTRA: every StepMix takes EXTRA's first step,
	// x⁺ = W·x − α∇f(x), and the two-term recursion never starts. With a
	// constant step size DGD only reaches an O(α)-neighborhood of the
	// optimum — the bias EXTRA's correction term removes.
	DGD bool
	// Policy selects the transmission scheme.
	Policy SendPolicy
	// APE configures the threshold schedule (used when Policy ==
	// SendSelected).
	APE APEConfig
	// RefreshEvery, when positive, makes the node broadcast its complete
	// parameter vector every RefreshEvery rounds regardless of Policy.
	// This is the RIP-style periodic full advertisement the paper's
	// synchronization model alludes to, and it is what makes selective
	// transmission safe over lossy links: a dropped frame leaves the
	// receiver with stale values that the sender (which cannot observe
	// the drop) would otherwise never retransmit, freezing the cluster
	// into a permanently disagreeing fixed point.
	RefreshEvery int
	// FullSendRound0 forces a complete parameter broadcast in round 0.
	// Required whenever nodes do not share identical initial parameters:
	// the selective-diff protocol reconstructs neighbor state against a
	// baseline, and the only baseline a fresh receiver has is its own
	// init.
	FullSendRound0 bool
	// RestartEvery, when positive, restarts the EXTRA two-term recursion
	// every that many rounds. Needed alongside RefreshEvery on lossy
	// links: EXTRA's optimality is carried by its accumulated correction
	// term Σ(W̃−W)x^t, and rounds computed on stale neighbor views
	// corrupt that history permanently — the iteration then converges to
	// a consensual but non-optimal point. A restart discards the
	// corrupted history and re-converges from the current iterate (EXTRA
	// converges from any initial point), bounding the staleness bias.
	RestartEvery int
	// Float32Wire declares that this node's updates travel as float32
	// (codec.EncodeLossy). The engine then records the float32-rounded
	// value — what the receiver actually reconstructs — in its sent
	// baseline, so the selective diff is computed against the true remote
	// view rather than a full-precision value the neighbor never saw.
	Float32Wire bool
	// Init is the node's initial parameter vector (shared by all nodes in
	// the paper's setup). It is cloned, not aliased.
	Init linalg.Vector
	// Obs, when set, receives engine metrics (compute time, selected
	// parameter counts, APE stage gauges) and APE/refresh lifecycle
	// events. Engine series are labeled node="<ID>" so a simulator
	// sharing one registry across engines keeps them distinct. Nil
	// disables observation at negligible cost.
	Obs *obs.Observer
	// Trace, when set, records the engine's gradient and mixing sub-spans
	// inside each round's trace. Nil disables them at zero cost.
	Trace *trace.Tracer
}

// Engine is one edge server's training state: the EXTRA two-term recursion
// over its own parameters plus its view of each neighbor's parameters,
// fed by selective updates.
//
// Buffer ownership: the engine preallocates every vector the round loop
// touches at construction and recycles them across rounds (see DESIGN.md
// "Hot path & buffer ownership"). Everything a method returns without a
// documented copy — StepMix's iterate, BuildUpdate's *codec.Update — is
// engine-owned scratch, valid only until the next call of the same
// method.
type Engine struct {
	cfg  EngineConfig
	wRow linalg.Vector

	x     linalg.Vector // x^{k+1}, the current iterate
	xPrev linalg.Vector // x^k
	grad  linalg.Vector // ∇f_i(x^{k+1}) scratch for the current step
	gPrev linalg.Vector // ∇f_i(x^k)
	mix   linalg.Vector // Σ_j w_ij·x_j scratch
	next  linalg.Vector // x^{k+2} under construction
	k     int           // EXTRA iteration counter (reset on APE restart; 0 throughout DGD)

	// Neighbor views are stored in slot arrays indexed by the position of
	// the neighbor id in the sorted nbrIDs slice; nbrIdx maps id → slot
	// (lookups only — iteration always walks the slices, in id order, so
	// float summation is deterministic).
	nbrIDs  []int
	nbrIdx  map[int]int
	nbrW    []float64       // w_{ID,j} per slot
	nbrCur  []linalg.Vector // view of x_j^{k+1} per slot
	nbrPrev []linalg.Vector // view of x_j^k per slot

	lastSent linalg.Vector // values the neighbors currently hold for us
	ape      *APEController

	upd      codec.Update     // reusable BuildUpdate output
	batchBuf []dataset.Sample // reusable mini-batch buffer
	gradSc   model.GradScratch
	gradSecs float64 // last ComputeGradient duration, folded into MComputeSeconds by StepMix
	gradLoss float64 // f_i at the iterate the last ComputeGradient differentiated

	// forceFull makes the next BuildUpdate transmit the complete
	// parameter vector regardless of policy — set after a neighbor
	// reconnects, whose view of us is stale in ways the selective-diff
	// protocol cannot observe.
	forceFull bool

	restarts int

	met engineMetrics
}

// engineMetrics caches this engine's metric handles (detached when
// unobserved), bound once at construction.
type engineMetrics struct {
	compute        *obs.Histogram
	paramsSent     *obs.Counter
	paramsWithheld *obs.Counter
	fullSends      *obs.Counter
	restarts       *obs.Counter
	roundSelected  *obs.Gauge
	modelParams    *obs.Gauge
	apeStage       *obs.Gauge
	apeThreshold   *obs.Gauge
	apeSendThresh  *obs.Gauge
}

func newEngineMetrics(o *obs.Observer, nodeID int) engineMetrics {
	node := strconv.Itoa(nodeID)
	return engineMetrics{
		compute:        o.Histogram(obs.Label(obs.MComputeSeconds, obs.LNode, node), obs.TimeBuckets),
		paramsSent:     o.Counter(obs.Label(obs.MParamsSent, obs.LNode, node)),
		paramsWithheld: o.Counter(obs.Label(obs.MParamsWithheld, obs.LNode, node)),
		fullSends:      o.Counter(obs.Label(obs.MFullSends, obs.LNode, node)),
		restarts:       o.Counter(obs.Label(obs.MExtraRestarts, obs.LNode, node)),
		roundSelected:  o.Gauge(obs.Label(obs.MRoundSelected, obs.LNode, node)),
		modelParams:    o.Gauge(obs.Label(obs.MModelParams, obs.LNode, node)),
		apeStage:       o.Gauge(obs.Label(obs.MAPEStage, obs.LNode, node)),
		apeThreshold:   o.Gauge(obs.Label(obs.MAPEThreshold, obs.LNode, node)),
		apeSendThresh:  o.Gauge(obs.Label(obs.MAPESendThreshold, obs.LNode, node)),
	}
}

// validateTopology checks a weight row and neighbor set for node id:
// the row must cover the node and every neighbor, neighbors must be
// distinct ids other than the node itself, the row must sum to 1, and
// only the diagonal and the neighbors may carry weight: the node never
// receives anyone else's parameters, so weight there would silently drop
// out of the mix and leave the cluster mixing with a different W.
func validateTopology(id int, wRow linalg.Vector, neighbors []int) error {
	if len(wRow) <= id {
		return fmt.Errorf("core: node %d weight row has length %d", id, len(wRow))
	}
	var rowSum float64
	for _, w := range wRow {
		rowSum += w
	}
	if math.Abs(rowSum-1) > 1e-6 {
		return fmt.Errorf("core: node %d weight row sums to %g, want 1", id, rowSum)
	}
	mixed := make([]bool, len(wRow)) // mixed[j]: x_j enters node id's mix
	mixed[id] = true
	for _, j := range neighbors {
		if j < 0 || j >= len(wRow) {
			return fmt.Errorf("core: node %d neighbor %d outside weight row of length %d", id, j, len(wRow))
		}
		if j == id {
			return fmt.Errorf("core: node %d lists itself as a neighbor", id)
		}
		mixed[j] = true
	}
	for j, w := range wRow {
		if w != 0 && !mixed[j] {
			return fmt.Errorf("core: node %d weight row has weight %g for non-neighbor %d", id, w, j)
		}
	}
	return nil
}

// NewEngine validates cfg and builds the engine, preallocating all
// per-round scratch.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	p := cfg.Model.NumParams()
	if len(cfg.Init) != p {
		return nil, fmt.Errorf("core: node %d init has %d params, model needs %d", cfg.ID, len(cfg.Init), p)
	}
	if cfg.Alpha <= 0 {
		return nil, fmt.Errorf("core: node %d requires positive Alpha", cfg.ID)
	}
	if err := validateTopology(cfg.ID, cfg.WRow, cfg.Neighbors); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		wRow:     cfg.WRow.Clone(),
		x:        cfg.Init.Clone(),
		xPrev:    linalg.NewVector(p),
		grad:     linalg.NewVector(p),
		gPrev:    linalg.NewVector(p),
		mix:      linalg.NewVector(p),
		next:     linalg.NewVector(p),
		lastSent: cfg.Init.Clone(),
		gradLoss: math.NaN(),
	}
	e.upd.Indices = make([]int, 0, p)
	e.upd.Values = make([]float64, 0, p)
	e.setNeighbors(cfg.Neighbors, func(int) (linalg.Vector, linalg.Vector) {
		// All nodes share the same initial parameters, so the initial
		// neighbor view is exact without any round-0 full exchange.
		return cfg.Init.Clone(), cfg.Init.Clone()
	})
	if cfg.Policy == SendSelected {
		apeCfg := cfg.APE
		apeCfg.Alpha = cfg.Alpha
		ctrl, err := NewAPEController(apeCfg, meanAbs(cfg.Init))
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", cfg.ID, err)
		}
		e.ape = ctrl
	}
	e.met = newEngineMetrics(cfg.Obs, cfg.ID)
	e.met.modelParams.Set(float64(p))
	if e.ape != nil {
		e.publishAPE()
	}
	return e, nil
}

// setNeighbors rebuilds the slot arrays for the given neighbor set
// (sorted copy) using seed to produce each slot's (cur, prev) views.
// e.wRow must already hold the row the slots index into.
func (e *Engine) setNeighbors(neighbors []int, seed func(j int) (cur, prev linalg.Vector)) {
	ids := append([]int(nil), neighbors...)
	sort.Ints(ids)
	e.nbrIDs = ids
	e.nbrIdx = make(map[int]int, len(ids))
	e.nbrW = make([]float64, len(ids))
	e.nbrCur = make([]linalg.Vector, len(ids))
	e.nbrPrev = make([]linalg.Vector, len(ids))
	for s, j := range ids {
		e.nbrIdx[j] = s
		e.nbrW[s] = e.wRow[j]
		e.nbrCur[s], e.nbrPrev[s] = seed(j)
	}
	e.cfg.Neighbors = ids
}

// Reconfigure swaps the engine's mixing row and neighbor set in place —
// the node-side half of an epoch switch. Views of retained neighbors
// survive (their parameters did not change just because the topology
// did); views of new neighbors are seeded with the node's own iterate and
// corrected by the full-parameter exchange the switch forces: Reconfigure
// restarts the EXTRA recursion (stale correction history must not span a
// topology change) and schedules a full send, and every reconfiguring
// peer does the same, so the first post-switch ingest replaces the
// seeded views with exact ones before they are ever mixed.
//
// The parameter dimensionality is fixed by the model, so lastSent, the
// APE controller, and every scratch vector keep their size across a
// reconfiguration; only the neighbor slots are rebuilt.
//
// Like the rest of the engine it must be called from the training-loop
// goroutine, between rounds.
func (e *Engine) Reconfigure(wRow linalg.Vector, neighbors []int) error {
	if err := validateTopology(e.cfg.ID, wRow, neighbors); err != nil {
		return fmt.Errorf("core: node %d reconfigure: %w", e.cfg.ID, err)
	}
	oldIdx, oldCur, oldPrev := e.nbrIdx, e.nbrCur, e.nbrPrev
	e.wRow = wRow.Clone()
	e.setNeighbors(neighbors, func(j int) (linalg.Vector, linalg.Vector) {
		if s, ok := oldIdx[j]; ok {
			return oldCur[s], oldPrev[s]
		}
		return e.x.Clone(), e.x.Clone()
	})
	e.RestartNow()
	e.forceFull = true
	return nil
}

// Neighbors returns a copy of the current neighbor id set.
func (e *Engine) Neighbors() []int {
	return append([]int(nil), e.nbrIDs...)
}

// RestartNow restarts the EXTRA two-term recursion immediately: the next
// StepMix applies the k=0 equation from the current iterate, discarding the
// accumulated correction history. RestartEvery is this, on a timer;
// explicit callers use it when the history is known to be invalid (e.g.
// the topology or weight matrix just changed).
func (e *Engine) RestartNow() { e.restartRecursion() }

// publishAPE mirrors the APE controller's state into the gauges.
func (e *Engine) publishAPE() {
	e.met.apeStage.Set(float64(e.ape.Stage()))
	e.met.apeThreshold.Set(e.ape.Threshold())
	e.met.apeSendThresh.Set(e.ape.SendThreshold())
}

// ID returns the node id.
func (e *Engine) ID() int { return e.cfg.ID }

// Params returns a copy of the current iterate. The engine recycles its
// internal buffers every StepMix, so handing out the live vector would let
// a caller's snapshot silently mutate; callers on the hot path that can
// honor the read-only contract use the iterate StepMix returns instead.
func (e *Engine) Params() linalg.Vector { return e.x.Clone() }

// ParamsInto copies the current iterate into dst, which must already have
// NumParams entries, and returns dst. It is the allocation-free companion
// to Params for callers that snapshot the model every round (the serving
// feed, periodic checkpoints): the caller owns dst outright, so later
// Steps never mutate it. Like the linalg kernels it panics on a length
// mismatch rather than resizing.
func (e *Engine) ParamsInto(dst linalg.Vector) linalg.Vector {
	if len(dst) != len(e.x) {
		panic(fmt.Sprintf("core: ParamsInto dst has %d entries, want %d", len(dst), len(e.x)))
	}
	copy(dst, e.x)
	return dst
}

// Restarts returns how many APE stage transitions have restarted the
// EXTRA recursion.
func (e *Engine) Restarts() int { return e.restarts }

// LocalLoss evaluates the node's objective f_i at its current iterate over
// the full local partition: one extra forward pass over the data, for
// callers that need the exact value now (final results, external
// evaluation). The round loops read GradientLoss instead.
func (e *Engine) LocalLoss() float64 {
	return e.cfg.Model.Loss(e.x, e.cfg.Data.Samples)
}

// GradientLoss returns f_i(x^k), the node's objective over its full local
// partition at the iterate the last ComputeGradient differentiated — the
// iterate the round started from, one StepMix behind LocalLoss. The
// gradient's forward pass yields it at no extra cost. NaN before the
// first ComputeGradient. Like the gradient scratch it must be read in
// order with ComputeGradient (after the round's barrier).
func (e *Engine) GradientLoss() float64 { return e.gradLoss }

// timed reports whether anyone consumes the engine's phase timings; with
// neither an observer nor a tracer the round path reads no clock.
func (e *Engine) timed() bool { return e.cfg.Obs != nil || e.cfg.Trace != nil }

// BuildUpdate produces the frame this node broadcasts for the given round,
// returning the update (before encoding) so callers can account sizes.
// Per SendPolicy it contains all parameters, all changed parameters, or
// only those whose accumulated change exceeds the APE threshold.
//
// The returned *codec.Update is engine-owned scratch: it is valid until
// the next BuildUpdate call and must not be retained or mutated.
func (e *Engine) BuildUpdate(round int) (*codec.Update, error) {
	if len(e.lastSent) != len(e.x) {
		return nil, fmt.Errorf("core: node %d sent-baseline has %d params, iterate has %d",
			e.cfg.ID, len(e.lastSent), len(e.x))
	}
	policy := e.cfg.Policy
	fullReason := "" // why the policy was elevated to SendAll, if it was
	if e.cfg.RefreshEvery > 0 && round > 0 && round%e.cfg.RefreshEvery == 0 {
		policy, fullReason = SendAll, "refresh_every"
	}
	if e.cfg.FullSendRound0 && round == 0 {
		policy, fullReason = SendAll, "round0"
	}
	if e.forceFull {
		policy, fullReason = SendAll, "reconnect"
		e.forceFull = false
	}
	u := &e.upd
	switch policy {
	case SendAll:
		u.Sender, u.Round, u.NumParams = e.cfg.ID, round, len(e.x)
		u.Indices = u.Indices[:0]
		u.Values = u.Values[:0]
		for i, v := range e.x {
			u.Indices = append(u.Indices, i)
			u.Values = append(u.Values, v)
		}
	case SendChanged:
		if err := codec.DiffInto(u, e.cfg.ID, round, e.lastSent, e.x, 0); err != nil {
			return nil, err
		}
	case SendSelected:
		if err := codec.DiffInto(u, e.cfg.ID, round, e.lastSent, e.x, e.ape.SendThreshold()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: node %d has unknown send policy %d", e.cfg.ID, int(e.cfg.Policy))
	}
	e.markSent(u)

	// Selected-vs-withheld accounting: the per-round selection gauge and
	// cumulative counters are the live form of the paper's Fig. 4b
	// (bytes-per-iteration savings).
	e.met.roundSelected.Set(float64(len(u.Indices)))
	e.met.paramsSent.Add(int64(len(u.Indices)))
	e.met.paramsWithheld.Add(int64(len(e.x) - len(u.Indices)))
	if fullReason != "" && e.cfg.Policy != SendAll {
		e.met.fullSends.Inc()
		e.emitRefresh(round, fullReason)
	}
	return u, nil
}

// emitRefresh records a policy-elevation lifecycle event.
func (e *Engine) emitRefresh(round int, reason string) {
	if e.cfg.Obs.LogEnabled() {
		f := obs.GetFields()
		f["reason"] = reason
		e.cfg.Obs.Emit(e.cfg.ID, obs.EvRefresh, round, -1, f)
		obs.PutFields(f)
	}
}

// RequestFullSend forces the next BuildUpdate to transmit the complete
// parameter vector regardless of policy. PeerNode calls this after a
// neighbor link reconnects: a dropped or reset connection leaves the
// neighbor holding stale values the selective-diff protocol would never
// retransmit, and EXTRA's accumulated correction term turns that silent
// staleness into a permanent bias. Not safe for concurrent use with
// BuildUpdate (call from the training-loop goroutine).
func (e *Engine) RequestFullSend() { e.forceFull = true }

// markSent records what the receivers will hold for us after applying u.
// On a float32 wire the receivers reconstruct the rounded value, so
// that — not the full-precision local value — is the baseline future
// selective diffs must be computed against; recording the unrounded
// value would leave a permanent sub-rounding discrepancy the diff
// protocol could never see or repair.
func (e *Engine) markSent(u *codec.Update) {
	if e.cfg.Float32Wire {
		for i, idx := range u.Indices {
			e.lastSent[idx] = float64(float32(u.Values[i]))
		}
		return
	}
	for i, idx := range u.Indices {
		e.lastSent[idx] = u.Values[i]
	}
}

// BeginIntegrate opens a round's ingest window: every neighbor slot's
// current view is rotated down into its x^k view, after which
// IngestFrame may be called once per arriving neighbor update. It is its
// own step so a pipelined round can rotate the views before the
// streaming gather starts delivering frames. Must precede the round's
// first IngestFrame.
func (e *Engine) BeginIntegrate() {
	for s := range e.nbrIDs {
		copy(e.nbrPrev[s], e.nbrCur[s])
	}
}

// IngestFrame applies one neighbor's decoded update to that neighbor's
// current view, decoding into the slot as the frame lands rather than
// waiting for the whole round's batch. Each sender owns a dedicated
// slot and StepMix walks the slots in sorted-id order, so the iterate
// is bitwise-independent of frame arrival order. Call between
// BeginIntegrate and StepMix; u is borrowed for the duration of the
// call only.
//
// Missing neighbors (withheld parameters, stragglers, failed links)
// simply keep their last values — the paper's staleness semantics.
func (e *Engine) IngestFrame(u *codec.Update) error {
	slot, ok := e.nbrIdx[u.Sender]
	if !ok {
		return fmt.Errorf("core: node %d received update from non-neighbor %d", e.cfg.ID, u.Sender)
	}
	if err := codec.Apply(e.nbrCur[slot], u); err != nil {
		return fmt.Errorf("core: node %d integrating from %d: %w", e.cfg.ID, u.Sender, err)
	}
	return nil
}

// ComputeGradient evaluates ∇f_i(x^{k+1}) into the engine's gradient
// scratch for round (which selects the mini-batch when BatchSize > 0)
// and leaves f_i(x^{k+1}) over the full partition for GradientLoss: a
// by-product of the same forward pass on a full batch, a second pass
// inside this same window when a mini-batch was sampled.
//
// It reads only the iterate and the local partition and writes only the
// gradient scratch — state disjoint from BeginIntegrate/IngestFrame and
// from BuildUpdate (which read/write the neighbor views and the sent
// baseline) — so a pipelined round may run it on another goroutine
// concurrently with build, broadcast, and the streaming gather. That
// disjointness is the whole overlap invariant: see DESIGN.md §14. It
// must still be ordered (happens-before, e.g. via a channel) with
// StepMix and with the next round's ComputeGradient.
func (e *Engine) ComputeGradient(round int) {
	var start time.Time
	if e.timed() {
		start = time.Now()
	}
	data := e.cfg.Data.Samples
	if bs := e.cfg.BatchSize; bs > 0 && bs < len(data) {
		e.batchBuf = e.cfg.Data.BatchInto(e.batchBuf, round, bs)
		model.GradientTo(e.cfg.Model, e.grad, e.x, e.batchBuf, &e.gradSc, 1)
		e.gradLoss = e.cfg.Model.Loss(e.x, data)
	} else {
		e.gradLoss = model.GradientLossTo(e.cfg.Model, e.grad, e.x, data, &e.gradSc, 1)
	}
	if e.timed() {
		end := time.Now()
		e.gradSecs = end.Sub(start).Seconds()
		e.cfg.Trace.Span(round, trace.SpanGrad, start, end)
	}
}

// StepMix completes the EXTRA iteration from the gradient ComputeGradient
// left in scratch and the current neighbor views, returning the new
// iterate. It is the barrier side of the pipelined round: call it only
// after both the round's ComputeGradient and its last IngestFrame.
//
// The returned vector is the engine's live iterate: read-only, valid
// until the next StepMix. Use Params for a stable copy.
func (e *Engine) StepMix(round int) linalg.Vector {
	var start time.Time
	if e.timed() {
		start = time.Now()
	}
	// mix = Σ_j w_ij·x_j^{k+1} (including the self term). The fused kernel
	// accumulates neighbors in slot (= sorted id) order, bitwise-matching
	// the sequential Scale-then-AXPY loop it replaced.
	linalg.MixTo(e.mix, e.wRow[e.cfg.ID], e.x, e.nbrW, e.nbrCur)

	if e.k == 0 {
		// x^1 = W·x^0 − α∇f(x^0): EXTRA's first step, and every DGD step.
		linalg.AXPYTo(e.next, e.mix, -e.cfg.Alpha, e.grad)
	} else {
		// x^{k+2} = x^{k+1} + W·x^{k+1} − W̃·x^k − α(∇f(x^{k+1}) − ∇f(x^k))
		// with W̃ = (W+I)/2, so the W̃ row is w_ij/2 off-diagonal and
		// (w_ii+1)/2 on the diagonal.
		linalg.AddTo(e.next, e.x, e.mix)
		e.next.AXPYInPlace(-(e.wRow[e.cfg.ID]+1)/2, e.xPrev)
		for s := range e.nbrIDs {
			e.next.AXPYInPlace(-e.nbrW[s]/2, e.nbrPrev[s])
		}
		e.next.AXPYInPlace(-e.cfg.Alpha, e.grad)
		e.next.AXPYInPlace(e.cfg.Alpha, e.gPrev)
	}

	// Compute seconds stay CPU time (gradient + mixing), not wall time:
	// under pipelining the two halves are separated by the gather window,
	// and counting that wait would double-book it against MGatherWait.
	if e.timed() {
		end := time.Now()
		e.cfg.Trace.Span(round, trace.SpanMix, start, end)
		e.met.compute.Observe(e.gradSecs + end.Sub(start).Seconds())
	}

	// Rotate the scratch vectors instead of allocating: the old x becomes
	// x^k, the freshly built iterate becomes x^{k+1}, and the old x^k
	// buffer is recycled as the next round's construction space. The
	// gradient pair swaps the same way.
	e.xPrev, e.x, e.next = e.x, e.next, e.xPrev
	e.grad, e.gPrev = e.gPrev, e.grad
	if !e.cfg.DGD {
		e.k++
	}

	if e.ape != nil && e.ape.AfterIteration() {
		// Stage transition: publish the new schedule point and, when the
		// literal Algorithm-1 reading is requested, restart the recursion
		// from the current solution.
		e.publishAPE()
		e.emitAPEStage(round)
		if e.cfg.APE.RestartRecursion {
			e.restartRecursion()
		}
	}
	if e.cfg.RestartEvery > 0 && round > 0 && round%e.cfg.RestartEvery == 0 {
		e.restartRecursion()
	}
	return e.x
}

// emitAPEStage records a stage-transition lifecycle event.
func (e *Engine) emitAPEStage(round int) {
	if e.cfg.Obs.LogEnabled() {
		f := obs.GetFields()
		f["stage"] = e.ape.Stage()
		f["threshold"] = e.ape.Threshold()
		f["send_threshold"] = e.ape.SendThreshold()
		e.cfg.Obs.Emit(e.cfg.ID, obs.EvAPEStage, round, -1, f)
		obs.PutFields(f)
	}
}

// restartRecursion resets the EXTRA two-term recursion so the next StepMix
// applies the k=0 equation from the current iterate. The xPrev/gPrev
// buffers keep their storage (the k=0 step never reads them and
// overwrites both via rotation).
func (e *Engine) restartRecursion() {
	e.k = 0
	e.restarts++
	e.met.restarts.Inc()
}

// APEStage returns the APE controller's stage, threshold and send
// threshold for observability; it returns zeros when the policy has no
// controller.
func (e *Engine) APEStage() (stage int, threshold, sendThreshold float64) {
	if e.ape == nil {
		return 0, 0, 0
	}
	return e.ape.Stage(), e.ape.Threshold(), e.ape.SendThreshold()
}

func meanAbs(v linalg.Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s / float64(len(v))
}
