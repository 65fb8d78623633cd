package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapml/snap/internal/model"
)

// benchGateway builds a gateway over the paper's 24-feature SVM with a
// published snapshot.
func benchGateway(b *testing.B, maxBatch int) *Gateway {
	b.Helper()
	m := model.NewLinearSVM(24)
	g, err := NewGateway(Config{
		Model:      m,
		Features:   24,
		MaxBatch:   maxBatch,
		QueueDepth: 4096,
		Workers:    2,
		Deadline:   10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	g.Feed().Publish(1, 0, m.InitParams(1))
	return g
}

func benchRows(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, 24)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// BenchmarkServePredict compares the per-row cost of the gateway's two
// operating points, measured under concurrent load with one op = one
// row in both modes:
//
//   - unbatched: every row is its own request and its own batch
//     (MaxBatch 1), so each row pays the full dispatch cycle — queue
//     handoff, worker wakeup, snapshot acquire/release, completion
//     signal;
//   - batched32: rows reach the worker 32 at a time and run through the
//     micro-batch path (collect → one acquire → one PredictBatchInto
//     pass → fan-out), amortizing the dispatch cycle across the batch.
//
// The acceptance floor is batched throughput >= 2x unbatched at batch
// size 32.
func BenchmarkServePredict(b *testing.B) {
	rows := benchRows(256)
	b.Run("unbatched", func(b *testing.B) {
		g := benchGateway(b, 1)
		b.SetParallelism(32)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			i := 0
			for pb.Next() {
				if _, _, err := g.Predict(ctx, rows[i%len(rows)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("batched32", func(b *testing.B) {
		g := benchGateway(b, 32)
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			batch := make([][]float64, 0, 32)
			dst := make([]int, 32)
			i := 0
			for pb.Next() {
				batch = append(batch, rows[i%len(rows)])
				i++
				if len(batch) == 32 {
					if _, err := g.PredictManyInto(ctx, dst, batch); err != nil {
						b.Fatal(err)
					}
					batch = batch[:0]
				}
			}
		})
	})
}

// BenchmarkServePredictMany measures the multi-row entry point at the
// acceptance batch size.
func BenchmarkServePredictMany(b *testing.B) {
	g := benchGateway(b, 32)
	rows := benchRows(32)
	dst := make([]int, len(rows))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PredictManyInto(ctx, dst, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPPredictLoopback is POST /v1/predict over the socket: two
// keep-alive clients in a closed loop against the HTTP handler on
// loopback, each request one 24-feature SVM row, the gateway at shipped
// defaults. The handler is unshaped (no pacer), so what it measures is
// the cost of the socket path, not predictRate. One op is one request,
// so ns/op is the wall time per request across both clients and req/s
// its inverse.
func BenchmarkHTTPPredictLoopback(b *testing.B) {
	const clients = 2
	m := model.NewLinearSVM(24)
	g, err := NewGateway(Config{Model: m, Features: 24})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	g.Feed().Publish(1, 0, m.InitParams(1))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: newHTTPHandler(g, nil)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // ErrServerClosed once srv.Close runs
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String() + "/v1/predict"

	rows := benchRows(64)
	bodies := make([][]byte, len(rows))
	for i, row := range rows {
		if bodies[i], err = json.Marshal(map[string][]float64{"features": row}); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%int64(len(bodies))]))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestPredictSteadyStateAllocs pins the allocation budget of the
// serving hot path: one warmed-up single-row Predict through queue,
// worker, compute, and completion. The budget is 1 allocation per
// predict — Go allocates a sudog the first few times a goroutine parks
// on the pooled request's channel, and the pool's round-robin across
// worker wakeups keeps a small residual; everything the gateway itself
// owns (requests, rows, labels, scratch) is reused.
func TestPredictSteadyStateAllocs(t *testing.T) {
	g := newTestGateway(t, Config{
		MaxBatch: 1,
		Workers:  1,
	})
	publishN(g.Feed(), 0, 0, 4, 1)
	ctx := context.Background()
	x := []float64{1, 0, 0, 0}
	for i := 0; i < 100; i++ {
		if _, _, err := g.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := g.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Predict allocates %.2f/op, budget 1", allocs)
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and body
// buffer across requests, so what a measurement sees is the handler.
type reusedWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *reusedWriter) Header() http.Header         { return w.header }
func (w *reusedWriter) WriteHeader(status int)      { w.status = status }
func (w *reusedWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// predictFixture is one warmed-up gateway plus a replayable one-row
// request of the paper's MLP width (784 features, a ~15 KB body).
type predictFixture struct {
	g    *Gateway
	w    *reusedWriter
	req  *http.Request
	body *bytes.Reader
	raw  []byte
}

// newPredictFixture sends the row as {"features":[…]}, or as
// {"instances":[[…]]} when instances is set.
func newPredictFixture(tb testing.TB, instances bool) *predictFixture {
	tb.Helper()
	const features = 784
	g, err := NewGateway(Config{Model: &signModel{params: 4}, Features: features, MaxBatch: 1, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(g.Close)
	publishN(g.Feed(), 0, 0, 4, 1)
	rng := rand.New(rand.NewSource(7))
	row := make([]float64, features)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	var body any = map[string][]float64{"features": row}
	if instances {
		body = map[string][][]float64{"instances": {row}}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &predictFixture{
		g:    g,
		w:    &reusedWriter{header: make(http.Header)},
		req:  httptest.NewRequest(http.MethodPost, "/v1/predict", nil),
		body: bytes.NewReader(raw),
		raw:  raw,
	}
	fx.req.Body = io.NopCloser(fx.body)
	return fx
}

// serve replays the request through handlePredict.
func (fx *predictFixture) serve(tb testing.TB) {
	fx.body.Reset(fx.raw)
	clear(fx.w.header)
	fx.w.body.Reset()
	handlePredict(fx.g, nil, fx.w, fx.req)
	if fx.w.status != http.StatusOK {
		tb.Fatalf("status %d: %s", fx.w.status, fx.w.body.Bytes())
	}
}

// BenchmarkHandlePredict is the whole of POST /v1/predict behind the
// socket for one 784-feature row: read, scan, validate, gateway, reply.
func BenchmarkHandlePredict(b *testing.B) {
	fx := newPredictFixture(b, false)
	b.SetBytes(int64(len(fx.raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.serve(b)
	}
}

// TestHandlePredictSteadyStateAllocs pins what a warmed-up one-row
// request allocates on its way through handlePredict, in both body forms.
// None of it may grow with the feature count: the body, the 784 values,
// the labels and the reply all live in the pooled predictScratch. What
// remains is fixed-size and not the handler's own — http.MaxBytesReader
// (1), the context.WithTimeout that bounds the wait (5), the header value
// slice (1) and the gateway's sudog residual (see
// TestPredictSteadyStateAllocs). The handler's own work, scanning the
// body and appending the reply, is held to zero on its own: one stray
// allocation there would still fit under the request's budget.
func TestHandlePredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, instances := range []bool{false, true} {
		fx := newPredictFixture(t, instances)
		for i := 0; i < 100; i++ {
			fx.serve(t)
		}
		allocs := testing.AllocsPerRun(200, func() { fx.serve(t) })
		if allocs > 8 {
			t.Fatalf("steady-state handlePredict (instances=%v) allocates %.2f/op, budget 8", instances, allocs)
		}

		var sc predictScratch
		labels := []int{1}
		own := func() {
			if !sc.scan(fx.raw) {
				t.Fatal("scanner declined the canonical body")
			}
			sc.out = appendPredictResponse(sc.out[:0], labels, Version{Round: 3, Epoch: 1})
		}
		own() // grow the scratch
		if n := testing.AllocsPerRun(200, own); n != 0 {
			t.Fatalf("scan + reply (instances=%v) allocate %.2f/op, want 0", instances, n)
		}
	}
}
