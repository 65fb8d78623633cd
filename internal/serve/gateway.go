package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
)

// Gateway errors, mapped to HTTP statuses by the handler (429, 503, 504).
var (
	// ErrOverloaded means the admission queue is full; retry later.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrNoModel means no snapshot has been published yet.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrClosed means the gateway has shut down.
	ErrClosed = errors.New("serve: gateway closed")
	// ErrDeadline means the request expired before a worker reached it.
	// It unwraps to context.DeadlineExceeded.
	ErrDeadline = fmt.Errorf("serve: request expired in queue: %w", context.DeadlineExceeded)
)

// Config parameterizes a Gateway.
type Config struct {
	// Model is the architecture predictions run through (required).
	Model model.Model
	// Features is the expected per-row feature dimensionality (required;
	// the HTTP layer rejects rows of any other length before they reach
	// the compute path).
	Features int
	// Feed supplies model snapshots. Nil means the gateway owns a fresh
	// empty feed (standalone mode: load checkpoints into it).
	Feed *Feed
	// MaxBatch is the row budget per micro-batch (default 32). A worker
	// never waits for a batch to fill: a batch is whatever queued while
	// the workers were busy. A single multi-row request always stays
	// whole, so an oversized request may exceed the budget.
	MaxBatch int
	// QueueDepth bounds the admission queue (default 1024). A full queue
	// rejects with ErrOverloaded instead of queueing unboundedly.
	QueueDepth int
	// Workers is the number of batch-executing goroutines (default 2).
	Workers int
	// Deadline is the per-request time budget (default 1s). Requests
	// still queued past it are failed with ErrDeadline, shedding load
	// that nobody is waiting for anymore.
	Deadline time.Duration
	// Obs receives gateway metrics and events (nil-safe).
	Obs *obs.Observer
	// Tracer records a span per executed micro-batch (nil-safe).
	Tracer *trace.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBatch <= 0 {
		out.MaxBatch = 32
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 1024
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.Deadline <= 0 {
		out.Deadline = time.Second
	}
	return out
}

// Version identifies the model snapshot a prediction was served from.
type Version struct {
	Round int
	Epoch int
}

// request is one queued prediction unit. Requests are pooled; the done
// channel has capacity 1 so a worker's completion send never blocks even
// if the caller already gave up on its context.
type request struct {
	xs       [][]float64
	x1       [1][]float64 // backing array for single-row requests
	labels   []int
	deadline time.Time
	enq      time.Time
	version  Version
	err      error
	done     chan struct{}
}

var reqPool = sync.Pool{
	New: func() any { return &request{done: make(chan struct{}, 1)} },
}

// gwMetrics caches metric handles so the per-request path does no
// registry lookups.
type gwMetrics struct {
	requests    *obs.Counter
	rejQueue    *obs.Counter
	rejDeadline *obs.Counter
	rejNoModel  *obs.Counter
	rejClosed   *obs.Counter
	predictions *obs.Counter
	batches     *obs.Counter
	latency     *obs.Histogram
	batchRows   *obs.Histogram
	queueDepth  *obs.Gauge
}

func newGwMetrics(o *obs.Observer) gwMetrics {
	return gwMetrics{
		requests:    o.Counter(MServeRequests),
		rejQueue:    o.Counter(obs.Label(MServeRejects, LReason, ReasonQueueFull)),
		rejDeadline: o.Counter(obs.Label(MServeRejects, LReason, ReasonDeadline)),
		rejNoModel:  o.Counter(obs.Label(MServeRejects, LReason, ReasonNoModel)),
		rejClosed:   o.Counter(obs.Label(MServeRejects, LReason, ReasonClosed)),
		predictions: o.Counter(MServePredictions),
		batches:     o.Counter(MServeBatches),
		latency:     o.Histogram(MServeLatency, LatencyBuckets),
		batchRows:   o.Histogram(MServeBatchRows, RowBuckets),
		queueDepth:  o.Gauge(MServeQueueDepth),
	}
}

// Gateway coalesces prediction requests into micro-batches and runs them
// against the feed's current snapshot on a small worker pool.
type Gateway struct {
	cfg   Config
	feed  *Feed
	queue chan *request
	quit  chan struct{}
	wg    sync.WaitGroup
	depth atomic.Int64
	met   gwMetrics

	closeMu sync.RWMutex
	closed  bool // guarded by closeMu
}

// NewGateway validates cfg, applies defaults, and starts the worker
// pool. Callers must Close it.
func NewGateway(cfg Config) (*Gateway, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	if cfg.Features <= 0 {
		return nil, errors.New("serve: Config.Features must be positive")
	}
	c := cfg.withDefaults()
	g := &Gateway{
		cfg:   c,
		feed:  c.Feed,
		queue: make(chan *request, c.QueueDepth),
		quit:  make(chan struct{}),
		met:   newGwMetrics(c.Obs),
	}
	if g.feed == nil {
		g.feed = NewFeed()
		g.feed.SetObserver(c.Obs, -1)
	}
	g.wg.Add(c.Workers)
	for i := 0; i < c.Workers; i++ {
		go g.worker()
	}
	return g, nil
}

// Feed returns the feed the gateway serves from.
func (g *Gateway) Feed() *Feed { return g.feed }

// Model returns the configured model architecture.
func (g *Gateway) Model() model.Model { return g.cfg.Model }

// Features returns the expected feature dimensionality.
func (g *Gateway) Features() int { return g.cfg.Features }

// Ready reports whether a model snapshot is available to serve.
func (g *Gateway) Ready() bool { return g.feed.Loaded() }

// Close stops the workers and fails everything still queued with
// ErrClosed. Safe to call more than once.
func (g *Gateway) Close() {
	g.closeMu.Lock()
	if g.closed {
		g.closeMu.Unlock()
		return
	}
	g.closed = true
	close(g.quit)
	g.closeMu.Unlock()

	g.wg.Wait()
	for {
		select {
		case r := <-g.queue:
			g.depth.Add(-1)
			g.met.rejClosed.Inc()
			g.finish(r, ErrClosed)
		default:
			g.met.queueDepth.Set(float64(g.depth.Load()))
			return
		}
	}
}

// Predict runs one feature row through the current model and returns its
// class label and the snapshot version that produced it. The row is read
// until the call returns; the gateway never retains it.
func (g *Gateway) Predict(ctx context.Context, x []float64) (int, Version, error) {
	r := reqPool.Get().(*request)
	r.x1[0] = x
	r.xs = r.x1[:1]
	if cap(r.labels) < 1 {
		r.labels = make([]int, 1, 8)
	}
	r.labels = r.labels[:1]
	if err := g.submit(ctx, r); err != nil {
		return 0, Version{}, err
	}
	label, v := r.labels[0], r.version
	putRequest(r)
	return label, v, nil
}

// PredictManyInto predicts every row of xs into dst (len(dst) must be at
// least len(xs)) as one atomic unit: the whole request runs against a
// single snapshot. Returns the snapshot version.
func (g *Gateway) PredictManyInto(ctx context.Context, dst []int, xs [][]float64) (Version, error) {
	if len(xs) == 0 {
		return Version{}, nil
	}
	if len(dst) < len(xs) {
		return Version{}, fmt.Errorf("serve: dst has %d slots for %d rows", len(dst), len(xs))
	}
	r := reqPool.Get().(*request)
	r.xs = append(r.xs[:0], xs...)
	if cap(r.labels) < len(xs) {
		r.labels = make([]int, len(xs))
	}
	r.labels = r.labels[:len(xs)]
	if err := g.submit(ctx, r); err != nil {
		return Version{}, err
	}
	copy(dst, r.labels)
	v := r.version
	putRequest(r)
	return v, nil
}

// putRequest drops row references (they are caller memory) and repools.
func putRequest(r *request) {
	r.x1[0] = nil
	for i := range r.xs {
		r.xs[i] = nil
	}
	r.xs = r.xs[:0]
	r.err = nil
	reqPool.Put(r)
}

// submit enqueues r and blocks until a worker completes it or ctx ends.
// On success the caller owns r again (and must repool it); on error r is
// either repooled here or abandoned to the worker.
func (g *Gateway) submit(ctx context.Context, r *request) error {
	g.met.requests.Inc()
	now := time.Now()
	r.enq = now
	r.deadline = now.Add(g.cfg.Deadline)
	if cd, ok := ctx.Deadline(); ok && cd.Before(r.deadline) {
		r.deadline = cd
	}

	g.closeMu.RLock()
	if g.closed {
		g.closeMu.RUnlock()
		g.met.rejClosed.Inc()
		putRequest(r)
		return ErrClosed
	}
	select {
	case g.queue <- r:
		g.closeMu.RUnlock()
		g.met.queueDepth.Set(float64(g.depth.Add(1)))
	default:
		g.closeMu.RUnlock()
		g.met.rejQueue.Inc()
		putRequest(r)
		return ErrOverloaded
	}

	select {
	case <-r.done:
		if err := r.err; err != nil {
			putRequest(r)
			return err
		}
		return nil
	case <-ctx.Done():
		// A worker may still be filling r: abandon it to the pool's GC
		// instead of repooling a request someone else writes to.
		return ctx.Err()
	}
}

// finish hands a completed (or failed) request back to its waiter.
func (g *Gateway) finish(r *request, err error) {
	r.err = err
	r.done <- struct{}{}
}

// worker executes micro-batches until the gateway closes. All batch
// scratch (request list, row list, label buffer, model scratch) is
// worker-local and reused, so the steady-state compute path allocates
// nothing.
func (g *Gateway) worker() {
	defer g.wg.Done()
	var (
		reqs   = make([]*request, 0, g.cfg.MaxBatch)
		rows   = make([][]float64, 0, g.cfg.MaxBatch)
		labels = make([]int, g.cfg.MaxBatch)
		sc     model.PredictScratch
	)
	for {
		var first *request
		select {
		case first = <-g.queue:
		case <-g.quit:
			return
		}
		g.met.queueDepth.Set(float64(g.depth.Add(-1)))
		reqs, rows = g.collect(reqs[:0], rows[:0], first)
		if len(labels) < len(rows) {
			labels = make([]int, len(rows))
		}
		g.runBatch(reqs, rows, labels, &sc)
	}
}

// collect assembles a micro-batch: the first request plus whatever is
// already queued, up to MaxBatch rows. It never waits — an idle worker
// runs a lone request at once, and requests coalesce exactly when they
// queued up behind busy workers.
func (g *Gateway) collect(reqs []*request, rows [][]float64, first *request) ([]*request, [][]float64) {
	now := time.Now()
	reqs, rows = g.admit(reqs, rows, first, now)
	for len(rows) < g.cfg.MaxBatch {
		select {
		case r := <-g.queue:
			g.met.queueDepth.Set(float64(g.depth.Add(-1)))
			reqs, rows = g.admit(reqs, rows, r, now)
		default:
			return reqs, rows
		}
	}
	return reqs, rows
}

// admit appends r's rows to the batch, or fails it immediately when its
// deadline already passed (shedding work nobody is waiting for).
func (g *Gateway) admit(reqs []*request, rows [][]float64, r *request, now time.Time) ([]*request, [][]float64) {
	if now.After(r.deadline) {
		g.met.rejDeadline.Inc()
		g.finish(r, ErrDeadline)
		return reqs, rows
	}
	return append(reqs, r), append(rows, r.xs...)
}

// runBatch predicts all rows against one acquired snapshot and fans the
// labels back out to their requests.
func (g *Gateway) runBatch(reqs []*request, rows [][]float64, labels []int, sc *model.PredictScratch) {
	if len(reqs) == 0 {
		return
	}
	start := time.Now()
	snap := g.feed.Acquire()
	if snap == nil {
		for _, r := range reqs {
			g.met.rejNoModel.Inc()
			g.finish(r, ErrNoModel)
		}
		return
	}
	out := labels[:len(rows)]
	model.PredictBatchInto(g.cfg.Model, out, snap.Params(), rows, sc)
	v := Version{Round: snap.Round(), Epoch: snap.Epoch()}
	snap.Release()

	end := time.Now()
	i := 0
	for _, r := range reqs {
		n := len(r.xs)
		copy(r.labels, out[i:i+n])
		i += n
		r.version = v
		g.met.latency.Observe(end.Sub(r.enq).Seconds())
		g.finish(r, nil)
	}
	g.met.batches.Inc()
	g.met.batchRows.Observe(float64(len(rows)))
	g.met.predictions.Add(int64(len(rows)))
	g.cfg.Tracer.Span(v.Round, SpanServeBatch, start, end)
}
