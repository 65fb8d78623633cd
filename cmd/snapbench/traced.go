package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/serve"
)

// runTraced is the per-layer pass of one workload: the training half is
// run by the production driver (untraced reference) and by the shadow
// driver (spans), the serving half is called layer by layer, and the
// isolated-call metrics are appended. micro may carry isolated-call
// metrics measured earlier in the same process.
func runTraced(w workload, seed int64, sz sizing, traceDir string, micro map[string]measurement) (*result, error) {
	started := time.Now()
	res := &result{Workload: w.Name, Metrics: make(map[string]measurement)}
	spec := sz.apply(w.Train)
	spec.Reps, spec.Rounds = spec.TraceReps, spec.TraceRounds
	prob := buildProblem(spec, seed)
	rec := newRecorder()

	vecs, err := tracedTraining(res, prob, rec)
	if err != nil {
		return nil, err
	}
	inputs, err := buildServeInputs(w.Serve, prob, vecs)
	if err != nil {
		return nil, err
	}
	if err := tracedServing(res, inputs, sz, rec); err != nil {
		return nil, err
	}
	if micro == nil {
		if micro, err = isolatedCalls(sz); err != nil {
			return nil, err
		}
	}
	for name, m := range micro {
		res.Metrics[name] = m
	}
	if traceDir != "" {
		if err := writeTrace(traceDir, w.Name, rec.all()); err != nil {
			return nil, err
		}
	}
	res.WallSeconds = time.Since(started).Seconds()
	return res, nil
}

// tracedTraining runs every rep twice — production driver, then shadow
// driver — and demands bitwise-equal snapshots and equal socket bytes.
func tracedTraining(res *result, prob *problem, rec *recorder) ([]linalg.Vector, error) {
	spec := prob.spec
	nodeRounds := spec.Nodes * spec.Rounds
	var (
		prodWall, shadowWall time.Duration
		mallocs              uint64
		counts               shadowCounts
		vecs                 []linalg.Vector
	)
	for k := 0; k < spec.Reps; k++ {
		in, err := prob.instance(k)
		if err != nil {
			return nil, err
		}
		res.Attempted += 2 * nodeRounds
		prod, err := prob.runRep(in, spec.Rounds, instrumentation{mallocs: true})
		if err != nil {
			res.fail(2*nodeRounds, "rep %d production: %v", k, err)
			continue
		}
		shadow, c, err := prob.shadowRep(in, spec.Rounds, rec)
		if err != nil {
			res.fail(nodeRounds, "rep %d shadow: %v", k, err)
			continue
		}
		var prodBytes float64
		for _, perNode := range prod.costs {
			prodBytes += sum(perNode)
		}
		switch {
		case shadow.hash != prod.hash:
			res.fail(nodeRounds, "rep %d: shadow driver iterates differ from the production driver's (hash %016x vs %016x)", k, shadow.hash, prod.hash)
		case float64(c.bytes) != prodBytes:
			res.fail(nodeRounds, "rep %d: shadow driver wrote %d bytes, production %0.f", k, c.bytes, prodBytes)
		}
		prodWall += prod.wall
		shadowWall += shadow.wall
		mallocs += prod.mallocs
		counts.add(c)
		if vecs == nil {
			vecs = quartileVectors(prod.sinks)
		}
	}
	if vecs == nil {
		return nil, fmt.Errorf("%s: no traced rep succeeded (%v)", res.Workload, res.Failures)
	}

	n := float64(spec.Reps * nodeRounds)
	training, _ := selfTimes(rec.all())
	self := make(map[string]float64) // Σ self µs by span name
	for _, row := range training {
		self[row.name] = row.selfUS
	}
	layers := []struct {
		name string
		us   float64
	}{
		{"core.build_update_us", self[spanNames[spBuild]]},
		{"codec.encode_us", self[spanNames[spEncode]]},
		{"transport.broadcast_us", self[spanNames[spBroadcast]]},
		// Waiting for the other nodes: the gather span outside decode and
		// ingest, plus (simulator only) the lockstep barrier ending a round.
		{"transport.gather_wait_us", self[spanNames[spGather]] + self[spanNames[spBarrier]]},
		{"codec.decode_us", self[spanNames[spDecode]]},
		{"core.ingest_us", self[spanNames[spIngest]]},
		{"core.gradient_us", self[spanNames[spGradient]]},
		{"core.step_mix_us", self[spanNames[spStepMix]]},
		{"core.local_loss_us", self[spanNames[spLocalLoss]]},
	}
	var nine float64
	for _, l := range layers {
		res.setExact(l.name, "us", l.us/n, int(n))
		nine += l.us / n
	}
	// One node's production round time: nodes advance in lockstep, so it
	// is the run's wall time over its rounds.
	prodRoundUS := prodWall.Seconds() * 1e6 / float64(spec.Reps*spec.Rounds)
	res.setExact("core.driver_residual_us", "us", prodRoundUS-nine, int(n))
	res.setExact("core.allocs_per_round", "count", float64(mallocs)/n, int(n))
	res.setExact("codec.frame_bytes", "bytes", float64(counts.frameBytes)/n, int(n))
	res.setExact("codec.selected_frac", "ratio", float64(counts.selected)/float64(counts.params), int(n))
	res.setExact("transport.frames_per_round", "count", float64(counts.frames)/n, int(n))
	res.setExact("trace.overhead_frac", "ratio", shadowWall.Seconds()/prodWall.Seconds()-1, spec.Reps)
	// The round span's self time is what the shadow driver spent outside
	// any layer; the rest of it is the nine.
	res.setExact("trace.layer_sum_frac", "ratio", nine/(nine+self[spanNames[spRound]]/n), int(n))
	return vecs, nil
}

// quartileVectors returns four spread-out cluster-mean iterates; the last
// is the trained model.
func quartileVectors(sinks []*snapSink) []linalg.Vector {
	last := sinks[0].snapshots() - 1
	if last < 0 {
		return nil
	}
	var out []linalg.Vector
	for q := 1; q <= servedVecs; q++ {
		i := max((last+1)*q/servedVecs-1, 0)
		out = append(out, meanSnapshot(linalg.NewVector(sinks[0].p), sinks, i))
	}
	return out
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) reset() {
	clear(w.header)
	w.body.Reset()
	w.status = http.StatusOK
}

// loopCalls caps the calls one client makes in a traced level, which
// bounds the preallocated span storage (a bare model call takes well
// under a microsecond on the SVM).
const loopCalls = 1 << 14

// closedLoop runs call from the client pool for d (or loopCalls calls per
// client, whichever ends first), recording a span per call; call reports
// whether the reply was acceptable.
func closedLoop(rec *recorder, kind, parent spanKind, d time.Duration, bodies int, call func(client, body int) bool) (calls, failed int) {
	n := clients()
	bufs := make([]*spanBuf, n)
	fails := make([]int, n)
	for c := range bufs {
		bufs[c] = rec.buf(0, c, loopCalls)
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n*loopCalls; i += n {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				ok := call(c, i%bodies)
				bufs[c].add(i, kind, parent, t0, time.Now())
				if !ok {
					fails[c]++
				}
			}
		}()
	}
	wg.Wait()
	for c, b := range bufs {
		calls += len(b.spans)
		failed += fails[c]
	}
	return calls, failed
}

// tracedServing times the serving stack from the outside in: real HTTP
// over loopback, the handler on an in-memory writer, the gateway's batch
// entry point, and the model's batch predictor, each under the same
// closed loop and the same hot-swapping publisher. A layer's self time is
// its median minus the median of the layer it calls.
func tracedServing(res *result, in *serveInputs, sz sizing, rec *recorder) error {
	rig, err := startRig(in, true)
	if err != nil {
		return err
	}
	defer rig.stop()
	started := time.Now()
	rig.drive(sz.ServeWarm)

	win := in.judge(rig.drive(sz.TraceServe))
	res.Attempted += win.requests
	if win.failed > 0 || win.requests == 0 {
		res.fail(max(win.failed, 1), "traced serving: %s", win.failure)
	}
	netBuf := rec.buf(0, 0, len(win.replies))
	var at time.Duration
	for i, r := range win.replies {
		// Client-side spans are rebuilt from the latencies the clients
		// logged; their order, not their absolute start, is meaningful.
		netBuf.add(i, spNet, spNone, rec.epoch.Add(at), rec.epoch.Add(at+r.latency))
		at += r.latency
	}

	nc := clients()
	writers := make([]*memWriter, nc)
	labels := make([][]int, nc)
	scratch := make([]model.PredictScratch, nc)
	for c := range writers {
		writers[c] = &memWriter{header: make(http.Header)}
		labels[c] = make([]int, in.spec.Rows)
	}
	httpCalls, httpFailed := closedLoop(rec, spHTTP, spNet, sz.TraceServe, len(in.bodies), func(c, b int) bool {
		w := writers[c]
		w.reset()
		req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(in.bodies[b]))
		if err != nil {
			return false
		}
		rig.handler.ServeHTTP(w, req)
		return w.status == http.StatusOK
	})
	gwCalls, gwFailed := closedLoop(rec, spGateway, spHTTP, sz.TraceServe, len(in.bodies), func(c, b int) bool {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := rig.gw.PredictManyInto(ctx, labels[c], in.rows[b])
		return err == nil
	})
	closedLoop(rec, spModel, spGateway, sz.TraceServe, len(in.bodies), func(c, b int) bool {
		model.PredictBatchInto(in.model, labels[c], in.vecs[b%servedVecs], in.rows[b], &scratch[c])
		return true
	})
	res.Attempted += httpCalls + gwCalls
	if httpFailed+gwFailed > 0 {
		res.fail(httpFailed+gwFailed, "traced serving: %d handler and %d gateway calls failed", httpFailed, gwFailed)
	}
	lifetime := time.Since(started).Seconds()

	_, serving := selfTimes(rec.all())
	for _, row := range serving {
		res.setExact(row.name+"_self_us", "us", row.selfUS, row.count)
	}

	reg := rig.reg
	rows := reg.Histogram(serve.MServeBatchRows, serve.RowBuckets)
	res.setExact("serve.batch_rows_mean", "rows", rows.Sum()/float64(max(rows.Count(), 1)), int(rows.Count()))
	var rejected int64
	for _, reason := range []string{serve.ReasonQueueFull, serve.ReasonDeadline, serve.ReasonNoModel, serve.ReasonClosed} {
		rejected += reg.Counter(obs.Label(serve.MServeRejects, serve.LReason, reason)).Value()
	}
	requests := reg.Counter(serve.MServeRequests).Value()
	res.setExact("serve.reject_frac", "ratio", float64(rejected)/float64(max(requests, 1)), int(requests))
	swaps := reg.Counter(serve.MServeSwaps).Value()
	res.setExact("serve.swaps_per_s", "1/s", float64(swaps)/lifetime, int(swaps))
	return nil
}
