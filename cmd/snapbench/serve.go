package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/serve"
)

const (
	swapEvery   = 10 * time.Millisecond // publisher cadence
	bodyPool    = 16                    // distinct request bodies, cycled
	servedVecs  = 4                     // round r serves vector r mod servedVecs
	maxRespSize = 4096
)

// clients is the closed-loop pool size: the callers are an upstream edge
// service with a fixed connection pool, and the generator must not use
// more connections than the box has CPUs.
func clients() int { return min(runtime.NumCPU(), 2) }

// serveInputs are the seed-derived request bodies of one serving half
// and the parsed rows behind them (for the off-the-clock check).
type serveInputs struct {
	spec   serveSpec
	model  model.Model
	bodies [][]byte
	rows   [][][]float64 // per body
	vecs   []linalg.Vector
}

func buildServeInputs(spec serveSpec, p *problem, vecs []linalg.Vector) (*serveInputs, error) {
	if len(vecs) != servedVecs {
		return nil, fmt.Errorf("serving needs %d parameter vectors, training produced %d", servedVecs, len(vecs))
	}
	in := &serveInputs{spec: spec, model: p.model, vecs: vecs}
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	for b := 0; b < bodyPool; b++ {
		rows := make([][]float64, spec.Rows)
		for r := range rows {
			rows[r] = p.heldOut.Samples[rng.Intn(p.heldOut.Len())].X
		}
		var payload any
		if spec.Rows == 1 {
			payload = map[string]any{"features": rows[0]}
		} else {
			payload = map[string]any{"instances": rows}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.rows = append(in.rows, rows)
	}
	return in, nil
}

// serveRig is one running gateway: feed, publisher, HTTP listener.
type serveRig struct {
	in      *serveInputs
	gw      *serve.Gateway
	handler http.Handler
	srv     *http.Server
	url     string
	reg     *obs.Registry // non-nil in the traced pass only

	stopPub chan struct{}
	pubDone chan struct{}
	srvDone chan struct{}
}

// startRig brings the gateway up at shipped defaults (MaxBatch 32,
// MaxWait 2ms, Workers 2) and starts the hot-swapping publisher.
func startRig(in *serveInputs, observed bool) (*serveRig, error) {
	r := &serveRig{in: in, stopPub: make(chan struct{}), pubDone: make(chan struct{}), srvDone: make(chan struct{})}
	feed := serve.NewFeed()
	cfg := serve.Config{Model: in.model, Features: len(in.rows[0][0]), Feed: feed}
	if observed {
		r.reg = obs.NewRegistry()
		cfg.Obs = &obs.Observer{Reg: r.reg}
		feed.SetObserver(cfg.Obs, -1)
	}
	gw, err := serve.NewGateway(cfg)
	if err != nil {
		return nil, err
	}
	r.gw = gw
	r.handler = serve.NewHTTPHandler(gw)
	feed.Publish(0, 0, in.vecs[0])

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String() + "/v1/predict"
	r.srv = &http.Server{Handler: r.handler}
	go func() {
		defer close(r.srvDone)
		_ = r.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	go func() {
		defer close(r.pubDone)
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for round := 1; ; round++ {
			select {
			case <-r.stopPub:
				return
			case <-tick.C:
				feed.Publish(round, 0, in.vecs[round%servedVecs])
			}
		}
	}()
	return r, nil
}

func (r *serveRig) stop() {
	close(r.stopPub)
	<-r.pubDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
	<-r.srvDone
	r.gw.Close()
}

// response is one client-observed request outcome, kept raw so that
// parsing and checking happen after the clock stops.
type response struct {
	body    int
	status  int
	latency time.Duration
	at      time.Duration // when the reply had been read, since the loop started
	off, n  int           // slice of the client's arena holding the reply bytes
}

type clientLog struct {
	arena []byte
	resps []response
}

// drive runs the closed loop for d: every client sends its next request
// only after the previous reply was read in full.
func (r *serveRig) drive(d time.Duration) []clientLog {
	n := clients()
	logs := make([]clientLog, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		logs[c] = clientLog{arena: make([]byte, 0, 1<<20), resps: make([]response, 0, 1<<14)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			lg := &logs[c]
			buf := make([]byte, maxRespSize)
			for i := c; time.Now().Before(deadline); i += n {
				b := i % len(r.in.bodies)
				t0 := time.Now()
				resp, err := client.Post(r.url, "application/json", bytes.NewReader(r.in.bodies[b]))
				rec := response{body: b, off: len(lg.arena)}
				if err == nil {
					m, _ := io.ReadFull(resp.Body, buf)
					resp.Body.Close()
					rec.status, rec.n = resp.StatusCode, m
					lg.arena = append(lg.arena, buf[:m]...)
				}
				done := time.Now()
				rec.latency, rec.at = done.Sub(t0), done.Sub(start)
				lg.resps = append(lg.resps, rec)
			}
		}()
	}
	wg.Wait()
	return logs
}

// reply is one verified 200-response as the client saw it.
type reply struct {
	at      time.Duration // completion, since the window started
	latency time.Duration
}

// serveWindow is the judged outcome of one measured serving window.
type serveWindow struct {
	requests int
	failed   int
	replies  []reply // verified 200-responses in completion order
	failure  string
}

type predictReply struct {
	Predictions []int `json:"predictions"`
	ModelRound  int   `json:"model_round"`
}

// judge checks every response against the offline model for the version
// the response says it was served from.
func (in *serveInputs) judge(logs []clientLog) *serveWindow {
	w := &serveWindow{}
	expected := make(map[[2]int][]int)
	var sc model.PredictScratch
	for _, lg := range logs {
		for _, rec := range lg.resps {
			w.requests++
			why := ""
			var got predictReply
			switch {
			case rec.status != http.StatusOK:
				why = fmt.Sprintf("status %d", rec.status)
			case json.Unmarshal(lg.arena[rec.off:rec.off+rec.n], &got) != nil:
				why = "undecodable reply"
			case len(got.Predictions) != in.spec.Rows:
				why = fmt.Sprintf("%d predictions for %d rows", len(got.Predictions), in.spec.Rows)
			default:
				key := [2]int{rec.body, got.ModelRound % servedVecs}
				want, ok := expected[key]
				if !ok {
					want = model.PredictBatchInto(in.model, make([]int, in.spec.Rows), in.vecs[key[1]], in.rows[rec.body], &sc)
					expected[key] = want
				}
				if !slices.Equal(want, got.Predictions) {
					why = fmt.Sprintf("labels differ from the offline model at round %d", got.ModelRound)
				}
			}
			if why != "" {
				w.failed++
				if w.failure == "" {
					w.failure = why
				}
				continue
			}
			w.replies = append(w.replies, reply{at: rec.at, latency: rec.latency})
		}
	}
	if w.requests == 0 {
		w.failure = "no request completed"
	}
	slices.SortFunc(w.replies, func(a, b reply) int { return cmp.Compare(a.at, b.at) })
	return w
}

// serveOnce is set-up + warm-up + one measured window + teardown.
func serveOnce(in *serveInputs, sz sizing) (*serveWindow, time.Duration, error) {
	setupStart := time.Now()
	rig, err := startRig(in, false)
	if err != nil {
		return nil, 0, err
	}
	defer rig.stop()
	rig.drive(sz.ServeWarm)
	setup := time.Since(setupStart)
	runtime.GC() // as before every training rep: start from a collected heap
	window := in.spec.Window
	if sz.Tiny {
		window = 150 * time.Millisecond
	}
	return in.judge(rig.drive(window)), setup, nil
}

// serving is one reading of the serving half.
type serving struct {
	rowsPS        float64 // rows in verified replies per second
	p50, p95, p99 float64 // client-observed latency, ms
}

// bestSpans lays the replies of every serving window end to end and
// slides a span of consecutive replies over them (in steps of a tenth of
// the span), returning rows per second and the latency quantiles, each
// from the span where it reads best. Outside load on a shared box arrives
// in bursts and only ever slows replies down; the best span is the one
// the bursts missed. A span's clock is the sum of its replies' completion
// gaps, so one that crosses into the next window does not count the
// training in between. Fewer replies than span are one span.
func bestSpans(windows []*serveWindow, span, rows int) serving {
	var lat, gap []float64 // per reply: latency in ms, seconds since the reply before it
	for _, w := range windows {
		var prev time.Duration // a window's first gap runs from its start
		for _, r := range w.replies {
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
			gap = append(gap, (r.at - prev).Seconds())
			prev = r.at
		}
	}
	if len(lat) == 0 {
		return serving{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	}
	span = min(span, len(lat))
	best := serving{0, math.Inf(1), math.Inf(1), math.Inf(1)}
	sorted := make([]float64, span)
	for lo := 0; lo+span <= len(lat); lo += max(span/10, 1) {
		copy(sorted, lat[lo:lo+span])
		slices.Sort(sorted)
		best.rowsPS = max(best.rowsPS, float64(span*rows)/sum(gap[lo:lo+span]))
		best.p50 = min(best.p50, sortedQuantile(sorted, 0.50))
		best.p95 = min(best.p95, sortedQuantile(sorted, 0.95))
		best.p99 = min(best.p99, sortedQuantile(sorted, 0.99))
	}
	return best
}
