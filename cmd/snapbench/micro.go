package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/snapml/snap/internal/baseline"
	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/controlplane"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/serve"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
	"github.com/snapml/snap/internal/weights"
)

// Isolated calls into single layers at the workloads' shapes. Each metric
// is the median of up to microSamples timed batches; a batch repeats the
// call until it lasts long enough for the clock to resolve it.

const (
	microSamples = 200
	minBatch     = 20 * time.Microsecond
	smallP       = svmFeatures // the SVM's parameter count
	largeP       = 23860       // the 784-30-10 MLP's
)

// sink defeats dead-code elimination of measured calls.
var sink float64

// timeCall returns the median duration of one f() in nanoseconds and the
// number of samples behind it. Slow calls get fewer samples: the budget
// caps the total, but never below atLeast.
func timeCall(budget time.Duration, atLeast int, f func()) (float64, int) {
	reps := 1
	samples := make([]float64, 0, microSamples)
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if d := time.Since(t); d >= minBatch || reps >= 1<<20 {
			samples = append(samples, float64(d)/float64(reps)) // the sizing batch is a sample too
			break
		}
		reps *= 2
	}
	deadline := time.Now().Add(budget)
	for len(samples) < microSamples && (len(samples) < atLeast || time.Now().Before(deadline)) {
		t := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t))/float64(reps))
	}
	return median(samples), len(samples)
}

type microSet struct {
	budget  time.Duration
	atLeast int
	out     map[string]measurement
}

// add times f and records ns-per-call divided by per, in unit.
func (m *microSet) add(name, unit string, per float64, f func()) {
	ns, n := timeCall(m.budget, m.atLeast, f)
	m.out[name] = measurement{Value: ns / per, Unit: unit, N: n}
}

func randomVector(rng *rand.Rand, n int) linalg.Vector {
	v := linalg.NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func isolatedCalls(sz sizing) (map[string]measurement, error) {
	m := &microSet{budget: sz.MicroBudget, atLeast: 3, out: make(map[string]measurement)}
	if sz.Tiny {
		m.atLeast = 1
	}
	rng := rand.New(rand.NewSource(7))
	const usPer, msPer = 1e3, 1e6

	// linalg
	x, y, dst := randomVector(rng, largeP), randomVector(rng, largeP), linalg.NewVector(largeP)
	nbrs := []linalg.Vector{randomVector(rng, largeP), randomVector(rng, largeP)}
	ws := []float64{0.3, 0.3}
	m.add("linalg.mix_to_ns_per_param", "ns", largeP, func() { linalg.MixTo(dst, 0.4, x, ws, nbrs) })
	m.add("linalg.axpy_to_ns_per_param", "ns", largeP, func() { linalg.AXPYTo(dst, x, -0.5, y) })
	m.add("linalg.dist_inf_ns_per_param", "ns", largeP, func() { sink += linalg.DistInf(x, y) })
	g20 := graph.RandomConnected(20, 3, rng)
	w20 := weights.Metropolis(g20, 0)
	var eigErr error
	m.add("linalg.sym_eigen_n20_us", "us", usPer, func() {
		if _, err := linalg.SymEigen(w20); err != nil {
			eigErr = err
		}
	})
	if eigErr != nil {
		return nil, eigErr
	}

	// model
	svm, mlp := newModel("svm"), newModel("mlp")
	credit := dataset.SyntheticCredit(dataset.CreditConfig{Samples: 1200, Features: svmFeatures}, rng)
	digitN := 500
	if sz.Tiny {
		digitN = 64
	}
	digits, _ := dataset.SyntheticDigits(dataset.DigitsConfig{Train: digitN, Test: 1, Side: mlpSide}, rng)
	svmP, mlpP := svm.InitParams(3), mlp.InitParams(3)
	svmG, mlpG := linalg.NewVector(len(svmP)), linalg.NewVector(len(mlpP))
	var svmSc, mlpSc model.GradScratch
	m.add("model.svm_gradient_ns_per_sample", "ns", float64(credit.Len()), func() {
		model.GradientTo(svm, svmG, svmP, credit.Samples, &svmSc, 1)
	})
	m.add("model.mlp_gradient_us_per_sample", "us", usPer*float64(digits.Len()), func() {
		model.GradientTo(mlp, mlpG, mlpP, digits.Samples, &mlpSc, 1)
	})
	m.add("model.svm_loss_ns_per_sample", "ns", float64(credit.Len()), func() { sink += svm.Loss(svmP, credit.Samples) })
	m.add("model.mlp_loss_us_per_sample", "us", usPer*float64(digits.Len()), func() { sink += mlp.Loss(mlpP, digits.Samples) })
	rows := func(ds *dataset.Dataset, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = ds.Samples[i].X
		}
		return out
	}
	svmRows, mlpRows := rows(credit, 32), rows(digits, 32)
	labels := make([]int, 32)
	var psc model.PredictScratch
	m.add("model.svm_predict_ns_per_row", "ns", 32, func() { model.PredictBatchInto(svm, labels, svmP, svmRows, &psc) })
	m.add("model.mlp_predict_us_per_row", "us", usPer*32, func() { model.PredictBatchInto(mlp, labels, mlpP, mlpRows, &psc) })

	// codec: a large update with half the parameters past the threshold,
	// and a small dense one.
	base, cur := linalg.NewVector(largeP), linalg.NewVector(largeP)
	for i := range cur {
		if i%2 == 0 {
			cur[i] = 1
		}
	}
	var big, small, decoded codec.Update
	var codecErr error
	note := func(err error) {
		if err != nil {
			codecErr = err
		}
	}
	m.add("codec.diff_into_ns_per_param", "ns", largeP, func() { note(codec.DiffInto(&big, 0, 1, base, cur, 0.5)) })
	var bigFrame, smallFrame []byte
	m.add("codec.encode_ns_per_param", "ns", largeP, func() {
		var err error
		bigFrame, _, err = codec.EncodeTo(bigFrame, &big)
		note(err)
	})
	m.add("codec.decode_ns_per_param", "ns", largeP, func() { note(codec.DecodeInto(&decoded, bigFrame)) })
	note(codec.DiffInto(&small, 0, 1, linalg.NewVector(smallP), randomVector(rng, smallP), 0))
	m.add("codec.encode_small_ns", "ns", 1, func() {
		var err error
		smallFrame, _, err = codec.EncodeTo(smallFrame, &small)
		note(err)
	})
	m.add("codec.decode_small_ns", "ns", 1, func() { note(codec.DecodeInto(&decoded, smallFrame)) })
	if codecErr != nil {
		return nil, codecErr
	}

	// transport
	k3 := graph.Complete(3)
	sim := transport.NewSim(k3, nil)
	var simErr error
	round := 0
	m.add("transport.sim_exchange_us", "us", usPer, func() {
		sim.BeginRound(round)
		round++
		for i := 0; i < 3; i++ {
			for _, j := range k3.Neighbors(i) {
				if err := sim.Send(i, j, smallFrame); err != nil {
					simErr = err
				}
			}
		}
		for i := 0; i < 3; i++ {
			sim.CollectStream(i, func(int, []byte) bool { return true })
		}
	})
	if simErr != nil {
		return nil, simErr
	}
	if err := m.peerRTT(smallFrame, bigFrame); err != nil {
		return nil, err
	}

	// weights, baseline
	m.add("weights.metropolis_n20_us", "us", usPer, func() { weights.Metropolis(g20, 0) })
	var optErr error
	m.add("weights.optimize_best_n20_ms", "ms", msPer, func() {
		if _, err := weights.OptimizeBest(g20, weights.BoundParams{Alpha: 0.1}, weights.Options{}); err != nil {
			optErr = err
		}
	})
	if optErr != nil {
		return nil, optErr
	}
	const centralIters = 10
	var centralErr error
	m.add("baseline.centralized_iter_us", "us", usPer*centralIters, func() {
		_, err := baseline.RunCentralized(baseline.CentralizedConfig{
			Model: svm, Partitions: []*dataset.Dataset{credit}, Alpha: 0.1, MaxIterations: centralIters,
			Convergence: metrics.ConvergenceDetector{Patience: centralIters + 1}, Seed: 1,
		})
		if err != nil {
			centralErr = err
		}
	})
	if centralErr != nil {
		return nil, centralErr
	}

	// obs, trace
	hist := (&obs.Observer{Reg: obs.NewRegistry()}).Histogram(obs.MRoundSeconds, obs.TimeBuckets)
	m.add("obs.observe_ns", "ns", 1, func() { hist.Observe(0.0123) })
	var off *obs.Observer
	m.add("obs.emit_off_ns", "ns", 1, func() {
		if off.LogEnabled() {
			sink++
		}
		off.Emit(0, obs.EvRoundStart, 1, -1, nil)
	})
	tr := trace.New(trace.Config{Node: 0})
	now := time.Now()
	tr.StartRound(1, now)
	m.add("trace.phase_ns", "ns", 1, func() { tr.Phase(1, trace.PhaseBuild, now, now) })

	// serving primitives
	feed := serve.NewFeed()
	m.add("serve.feed_publish_us", "us", usPer, func() { feed.Publish(1, 0, mlpP) })
	m.add("serve.feed_acquire_ns", "ns", 1, func() { feed.Acquire().Release() })
	if err := m.gatewayCalls(svm, svmP, svmRows[0], mlp, mlpP, mlpRows); err != nil {
		return nil, err
	}

	if err := m.obsOverhead(sz); err != nil {
		return nil, err
	}
	if err := m.joinEpoch(sz); err != nil {
		return nil, err
	}
	return m.out, nil
}

// peerRTT bounces a frame between two connected transport.Peers: A sends,
// B gathers it and sends it back, A gathers the echo.
func (m *microSet) peerRTT(small, large []byte) error {
	a, err := transport.NewPeer(0, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewPeer(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	peers := []*transport.Peer{a, b}
	err = connectAll(2, func(i int) []int { return []int{1 - i} }, func(i int) string { return peers[i].Addr() },
		func(i int, addrs map[int]string) error { return peers[i].Connect(addrs, 10*time.Second) })
	if err != nil {
		return err
	}
	// B echoes every round until told to stop.
	rounds := make(chan int)
	echoed := make(chan error)
	go func() {
		defer close(echoed)
		for r := range rounds {
			var frame []byte
			b.GatherStream(r, roundTimeout, func(_ int, f []byte) bool { frame = f; return true })
			err := b.Send(0, r, frame)
			transport.RecycleFrame(frame)
			b.ForgetRound(r)
			echoed <- err
		}
	}()
	defer func() {
		close(rounds)
		<-echoed
	}()
	round := 0
	var rttErr error
	bounce := func(frame []byte) func() {
		return func() {
			rounds <- round
			if err := a.Send(1, round, frame); err != nil {
				rttErr = err
			}
			got, _ := a.GatherStream(round, roundTimeout, func(_ int, f []byte) bool {
				transport.RecycleFrame(f)
				return true
			})
			if err := <-echoed; err != nil || got != 1 {
				rttErr = fmt.Errorf("echo round %d: got %d frames, err %v", round, got, err)
			}
			a.ForgetRound(round)
			round++
		}
	}
	m.add("transport.peer_rtt_small_us", "us", 1e3, bounce(small))
	m.add("transport.peer_rtt_large_us", "us", 1e3, bounce(large))
	return rttErr
}

// gatewayCalls times the gateway's two entry points at shipped defaults:
// a lone single-row Predict (which waits out MaxWait for company) and a
// 32-row PredictManyInto (which fills MaxBatch and runs at once).
func (m *microSet) gatewayCalls(svm model.Model, svmP linalg.Vector, svmRow []float64, mlp model.Model, mlpP linalg.Vector, mlpRows [][]float64) error {
	var callErr error
	one, err := serve.NewGateway(serve.Config{Model: svm, Features: len(svmRow)})
	if err != nil {
		return err
	}
	defer one.Close()
	one.Feed().Publish(0, 0, svmP)
	m.add("serve.gateway_single_us", "us", 1e3, func() {
		if _, _, err := one.Predict(context.Background(), svmRow); err != nil {
			callErr = err
		}
	})
	many, err := serve.NewGateway(serve.Config{Model: mlp, Features: len(mlpRows[0])})
	if err != nil {
		return err
	}
	defer many.Close()
	many.Feed().Publish(0, 0, mlpP)
	labels := make([]int, len(mlpRows))
	m.add("serve.gateway_many32_us", "us", 1e3, func() {
		if _, err := many.PredictManyInto(context.Background(), labels, mlpRows); err != nil {
			callErr = err
		}
	})
	return callErr
}

// obsOverhead trains the tcp-svm-k5 clusters with the system's Observer
// and Tracer attached and again without, and reports the relative cost.
func (m *microSet) obsOverhead(sz sizing) error {
	w, _ := findWorkload("tcp-svm-k5")
	spec := sz.apply(w.Train)
	spec.Reps = 10
	if sz.Tiny {
		spec.Reps = 1
	}
	prob := buildProblem(spec, 1)
	var on, off time.Duration
	for k := 0; k < spec.Reps; k++ {
		in, err := prob.instance(k)
		if err != nil {
			return err
		}
		plain, err := prob.runRep(in, spec.Rounds, instrumentation{})
		if err != nil {
			return err
		}
		observed, err := prob.runRep(in, spec.Rounds, instrumentation{on: true})
		if err != nil {
			return err
		}
		if observed.hash != plain.hash {
			return fmt.Errorf("obs.overhead_frac: observing rep %d changed its iterates", k)
		}
		off += plain.wall
		on += observed.wall
	}
	m.out["obs.overhead_frac"] = measurement{Value: on.Seconds()/off.Seconds() - 1, Unit: "ratio", N: spec.Reps}
	return nil
}

// joinEpoch measures elastic cluster formation: with four members waiting,
// the time from the fifth Join to every member holding the founding epoch.
func (m *microSet) joinEpoch(sz sizing) error {
	const members = 5
	trials := 5
	if sz.Tiny {
		trials = 1
	}
	var ms []float64
	for t := 0; t < trials; t++ {
		d, err := formCluster(members)
		if err != nil {
			return err
		}
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	m.out["controlplane.join_epoch_ms"] = measurement{Value: median(ms), Unit: "ms", N: len(ms)}
	return nil
}

func formCluster(members int) (time.Duration, error) {
	coord, err := controlplane.NewCoordinator(controlplane.CoordinatorConfig{MinMembers: members})
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	clients := make([]*controlplane.Client, members)
	errs := make([]error, members)
	listeners := make([]net.Listener, members)
	defer func() {
		for i := range clients {
			if clients[i] != nil {
				clients[i].Close()
			}
			if listeners[i] != nil {
				listeners[i].Close()
			}
		}
	}()
	var wg sync.WaitGroup
	join := func(i int) {
		defer wg.Done()
		clients[i], errs[i] = controlplane.Join(controlplane.ClientConfig{
			Coordinator: coord.Addr(), Advertise: listeners[i].Addr().String(), JoinWait: 30 * time.Second,
		})
	}
	for i := range listeners {
		if listeners[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return 0, err
		}
	}
	for i := 0; i < members-1; i++ {
		wg.Add(1)
		go join(i)
	}
	// The first four block inside Join until the quorum completes; wait
	// until the coordinator has admitted them before timing the last.
	for deadline := time.Now().Add(10 * time.Second); len(coord.Members()) < members-1; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("controlplane: %d of %d founders admitted after 10s", len(coord.Members()), members-1)
		}
		time.Sleep(200 * time.Microsecond)
	}
	start := time.Now()
	wg.Add(1)
	go join(members - 1)
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("member %d: %w", i, err)
		}
	}
	return elapsed, nil
}
