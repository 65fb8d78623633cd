package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
)

// signModel is a deterministic test model: label 1 iff the first feature
// is positive, with a fixed parameter count. It keeps gateway tests
// independent of real model numerics.
type signModel struct{ params int }

func (m *signModel) Name() string                                 { return "sign" }
func (m *signModel) NumParams() int                               { return m.params }
func (m *signModel) InitParams(int64) linalg.Vector               { return linalg.NewVector(m.params) }
func (m *signModel) Loss(linalg.Vector, []dataset.Sample) float64 { return 0 }
func (m *signModel) RegGradTo(dst, _ linalg.Vector)               { dst.Fill(0) }
func (m *signModel) ScratchSize() (floats, ints int)              { return 0, 0 }
func (m *signModel) AccumGrad(_, _ linalg.Vector, _ []dataset.Sample, _ *model.Scratch) float64 {
	return 0
}
func (m *signModel) PredictInto(_ linalg.Vector, x []float64, _ *model.Scratch) int {
	if x[0] > 0 {
		return 1
	}
	return 0
}

// gateModel blocks every PredictInto until release closes the gate
// channel, letting tests hold a worker busy while they fill the queue.
// Each entry into PredictInto is announced on entered first.
type gateModel struct {
	signModel
	gate    chan struct{}
	entered chan struct{}
	release func() // closes gate; idempotent
}

func newGateModel() *gateModel {
	gm := &gateModel{
		signModel: signModel{params: 4},
		gate:      make(chan struct{}),
		entered:   make(chan struct{}, 64),
	}
	gm.release = sync.OnceFunc(func() { close(gm.gate) })
	return gm
}

// awaitEntry waits until a worker is inside the gated PredictInto,
// failing the test after 2 s instead of blocking it forever.
func (m *gateModel) awaitEntry(t *testing.T) {
	t.Helper()
	select {
	case <-m.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("no worker entered the gated model in 2s")
	}
}

func (m *gateModel) PredictInto(p linalg.Vector, x []float64, sc *model.Scratch) int {
	m.entered <- struct{}{}
	<-m.gate
	return m.signModel.PredictInto(p, x, sc)
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = &signModel{params: 4}
	}
	if cfg.Features == 0 {
		cfg.Features = 4
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if gm, ok := cfg.Model.(*gateModel); ok {
		// Cleanups run last-registered first: the gate opens before
		// g.Close waits for a worker held in it, so a test that fails
		// while holding the worker ends instead of hanging.
		t.Cleanup(gm.release)
	}
	return g
}

func publishN(f *Feed, round, epoch, n int, fill float64) {
	v := linalg.NewVector(n)
	v.Fill(fill)
	f.Publish(round, epoch, v)
}

func TestGatewayPredict(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 7, 2, 4, 1)

	label, v, err := g.Predict(context.Background(), []float64{3, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Fatalf("Predict = %d, want 1", label)
	}
	if v.Round != 7 || v.Epoch != 2 {
		t.Fatalf("version = %+v, want round 7 epoch 2", v)
	}

	xs := [][]float64{{1, 0, 0, 0}, {-1, 0, 0, 0}, {5, 0, 0, 0}}
	dst := make([]int, len(xs))
	v, err = g.PredictManyInto(context.Background(), dst, xs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("PredictManyInto[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	if v.Round != 7 {
		t.Fatalf("batch version round = %d, want 7", v.Round)
	}
}

func TestGatewayRealModel(t *testing.T) {
	m := model.NewLinearSVM(4)
	g := newTestGateway(t, Config{Model: m, Features: 4})
	params := m.InitParams(42)
	g.Feed().Publish(1, 0, params)

	x := []float64{0.5, -1, 2, 0.25}
	label, _, err := g.Predict(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.PredictInto(params, x, nil); label != want {
		t.Fatalf("gateway label %d, direct PredictInto %d", label, want)
	}
}

func TestGatewayNoModel(t *testing.T) {
	g := newTestGateway(t, Config{})
	if g.Ready() {
		t.Fatal("empty gateway reports ready")
	}
	_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

func TestGatewayOverload(t *testing.T) {
	gm := newGateModel()
	reg := obs.NewRegistry()
	g := newTestGateway(t, Config{
		Model:      gm,
		Features:   4,
		Workers:    1,
		QueueDepth: 1,
		MaxBatch:   1,
		Obs:        &obs.Observer{Reg: reg},
	})
	publishN(g.Feed(), 0, 0, 4, 1)

	// First request occupies the worker (blocked in the gated model),
	// second fills the queue, third must be rejected immediately.
	results := make(chan error, 2)
	go func() {
		_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
		results <- err
	}()
	gm.awaitEntry(t) // worker is now inside the gated Predict
	go func() {
		_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
		results <- err
	}()
	waitUntil(t, func() bool { return g.depth.Load() >= 1 }) // second parked in queue

	_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := reg.Counter(obs.Label(MServeRejects, LReason, ReasonQueueFull)).Value(); got != 1 {
		t.Fatalf("queue_full rejects = %d, want 1", got)
	}

	gm.release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("blocked request %d failed: %v", i, err)
		}
	}
}

func TestGatewayDeadline(t *testing.T) {
	gm := newGateModel()
	reg := obs.NewRegistry()
	g := newTestGateway(t, Config{
		Model:    gm,
		Features: 4,
		Workers:  1,
		MaxBatch: 1,
		Deadline: 30 * time.Millisecond,
		Obs:      &obs.Observer{Reg: reg},
	})
	publishN(g.Feed(), 0, 0, 4, 1)

	// Occupy the worker, then queue a second request and let its
	// deadline lapse before the worker frees up.
	first := make(chan error, 1)
	go func() {
		_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
		first <- err
	}()
	gm.awaitEntry(t) // worker is now inside the gated Predict

	second := make(chan error, 1)
	go func() {
		_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
		second <- err
	}()
	waitUntil(t, func() bool { return g.depth.Load() >= 1 }) // second parked in queue

	time.Sleep(60 * time.Millisecond) // both deadlines lapse
	gm.release()

	// The first was already executing; whether it finishes depends on
	// scheduling, but the queued second must be shed with ErrDeadline.
	<-first
	if err := <-second; !errors.Is(err, ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request err = %v, want deadline error", err)
	}
	if got := reg.Counter(obs.Label(MServeRejects, LReason, ReasonDeadline)).Value(); got < 1 {
		t.Fatalf("deadline rejects = %d, want >= 1", got)
	}
}

func TestGatewayClose(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 0, 0, 4, 1)
	g.Close()
	_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err after Close = %v, want ErrClosed", err)
	}
	g.Close() // idempotent
}

// holdWorker starts a gateway whose single worker is parked inside the
// gated model on a first request, then queues n more one-row requests
// behind it. Their errors arrive on the returned channel.
func holdWorker(t *testing.T, gm *gateModel, cfg Config, n int) (*Gateway, <-chan error) {
	t.Helper()
	cfg.Model, cfg.Features, cfg.Workers = gm, 4, 1
	g := newTestGateway(t, cfg)
	publishN(g.Feed(), 0, 0, 4, 1)
	results := make(chan error, n+1) // one send per request
	predict := func() {
		_, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0})
		results <- err
	}
	go predict()
	gm.awaitEntry(t) // the worker is now inside the gated Predict
	for i := 0; i < n; i++ {
		go predict()
	}
	waitUntil(t, func() bool { return g.depth.Load() == int64(n) })
	return g, results
}

// TestGatewayCoalescesBacklog pins the dispatch policy's batching half:
// requests that queued while the worker was busy leave as one batch, cut
// at the MaxBatch row budget.
func TestGatewayCoalescesBacklog(t *testing.T) {
	for _, tc := range []struct {
		name             string
		queued, maxBatch int
		batches          []float64 // rows per batch, the held request's first
	}{
		{"within budget", 5, 8, []float64{1, 5}},
		{"splits at budget", 6, 4, []float64{1, 4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gm := newGateModel()
			reg := obs.NewRegistry()
			_, results := holdWorker(t, gm, Config{MaxBatch: tc.maxBatch, Obs: &obs.Observer{Reg: reg}}, tc.queued)
			gm.release()
			for i := 0; i <= tc.queued; i++ {
				if err := <-results; err != nil {
					t.Fatalf("request failed: %v", err)
				}
			}
			// A request is answered before its batch is observed.
			h := reg.Histogram(MServeBatchRows, RowBuckets)
			waitUntil(t, func() bool { return h.Count() == int64(len(tc.batches)) })
			want := obs.NewRegistry().Histogram(MServeBatchRows, RowBuckets)
			for _, rows := range tc.batches {
				want.Observe(rows)
			}
			_, got := h.Buckets()
			_, wantCum := want.Buckets()
			if !slices.Equal(got, wantCum) || h.Sum() != want.Sum() {
				t.Fatalf("batch rows: cumulative %v sum %v, want batches %v", got, h.Sum(), tc.batches)
			}
		})
	}
}

// TestGatewayIdleDispatch pins the other half: at default Config a lone
// request on an idle gateway is run at once, not held for company. The
// bound is ~200x what the dispatch costs, and below any timed hold that
// could gather a batch.
func TestGatewayIdleDispatch(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 0, 0, 4, 1)
	ctx := context.Background()
	x := []float64{1, 0, 0, 0}
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		if _, _, err := g.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if median := took[len(took)/2]; median >= time.Millisecond {
		t.Fatalf("median lone Predict took %v, want < 1ms", median)
	}
}

// TestGatewayCloseFailsQueued closes the gateway with a backlog behind a
// busy worker. Once released, the worker may pick up queued requests or
// see the quit signal, whichever its select draws first; with 40 queued
// one-row batches it cannot draw the queue every time. Every request
// must return, served or ErrClosed.
func TestGatewayCloseFailsQueued(t *testing.T) {
	const queued = 40
	gm := newGateModel()
	reg := obs.NewRegistry()
	g, results := holdWorker(t, gm, Config{MaxBatch: 1, Obs: &obs.Observer{Reg: reg}}, queued)
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	waitUntil(t, func() bool {
		g.closeMu.RLock()
		defer g.closeMu.RUnlock()
		return g.closed
	})
	gm.release()
	<-closed

	failed := 0
	for i := 0; i <= queued; i++ {
		switch err := <-results; {
		case errors.Is(err, ErrClosed):
			failed++
		case err != nil:
			t.Fatalf("request failed with %v, want nil or ErrClosed", err)
		}
	}
	if failed == 0 {
		t.Fatal("no queued request was failed with ErrClosed")
	}
	if got := reg.Counter(obs.Label(MServeRejects, LReason, ReasonClosed)).Value(); got != int64(failed) {
		t.Fatalf("closed rejects = %d, want %d", got, failed)
	}
}

func TestGatewayMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := newTestGateway(t, Config{Obs: &obs.Observer{Reg: reg}})
	publishN(g.Feed(), 3, 1, 4, 1)

	for i := 0; i < 5; i++ {
		if _, _, err := g.Predict(context.Background(), []float64{1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(MServeRequests).Value(); got != 5 {
		t.Fatalf("requests = %d, want 5", got)
	}
	if got := reg.Counter(MServePredictions).Value(); got != 5 {
		t.Fatalf("predictions = %d, want 5", got)
	}
	if got := reg.Counter(MServeBatches).Value(); got < 1 || got > 5 {
		t.Fatalf("batches = %d, want 1..5", got)
	}
	if got := reg.Histogram(MServeLatency, LatencyBuckets).Count(); got != 5 {
		t.Fatalf("latency observations = %d, want 5", got)
	}
	if got := reg.Counter(MServeSwaps).Value(); got != 1 {
		t.Fatalf("swaps = %d, want 1", got)
	}
	if got := reg.Gauge(MServeModelRound).Value(); got != 3 {
		t.Fatalf("model round gauge = %v, want 3", got)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := NewGateway(Config{Features: 4}); err == nil {
		t.Fatal("NewGateway without a model must fail")
	}
	if _, err := NewGateway(Config{Model: &signModel{params: 4}}); err == nil {
		t.Fatal("NewGateway without Features must fail")
	}
}

func TestPredictManyIntoShortDst(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 0, 0, 4, 1)
	_, err := g.PredictManyInto(context.Background(), make([]int, 1), [][]float64{{1, 0, 0, 0}, {2, 0, 0, 0}})
	if err == nil {
		t.Fatal("short dst must fail")
	}
	if _, err := g.PredictManyInto(context.Background(), nil, nil); err != nil {
		t.Fatalf("empty request should be a no-op, got %v", err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
