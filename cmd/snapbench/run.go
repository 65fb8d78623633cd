package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/snapml/snap/internal/linalg"
)

// measurement is one reported number. Samples holds what each pass
// measured for a timing (empty for exact counts).
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"` // sample count behind the value
	Samples []float64 `json:"samples,omitempty"`
}

// result is everything one pass type of one workload produced.
type result struct {
	Workload    string                 `json:"workload"`
	Metrics     map[string]measurement `json:"metrics"`
	Attempted   int                    `json:"ops_attempted"`
	Failed      int                    `json:"ops_failed"`
	Failures    []string               `json:"failures,omitempty"`
	FinalParams string                 `json:"final_params_fnv64,omitempty"`
	WallSeconds float64                `json:"wall_s"`
	Load1       float64                `json:"load1_before"`
	Noisy       bool                   `json:"noisy,omitempty"`
}

func (r *result) fail(ops int, format string, args ...any) {
	r.Failed += ops
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name, unit string, samples []float64, n int) {
	r.Metrics[name] = measurement{Value: median(samples), Unit: unit, N: n, Samples: samples}
}

func (r *result) setExact(name, unit string, v float64, n int) {
	r.Metrics[name] = measurement{Value: v, Unit: unit, N: n}
}

// trainTiming is what a timed rep leaves behind once its snapshots have
// been hashed: enough to place r_eps on its clock later.
type trainTiming struct {
	done [][]time.Duration // per node, per round
	hash uint64
}

func timingOf(run *repRun) trainTiming {
	t := trainTiming{hash: run.hash, done: make([][]time.Duration, len(run.sinks))}
	for i, s := range run.sinks {
		t.done[i] = s.done
	}
	return t
}

// reached is when every node had finished round r.
func (t trainTiming) reached(r int) time.Duration {
	var at time.Duration
	for _, done := range t.done {
		at = max(at, done[r])
	}
	return at
}

// runEndToEnd is the untraced measurement of one workload: passes of
// (set-up, cycles × reps trainings, one serving window) until the run's
// time budget is spent, every output checked. Nothing is evaluated while
// the clock may be running: pass 0 keeps its snapshots and all judging
// happens after the last pass.
func runEndToEnd(w workload, seed int64, sz sizing) (*result, error) {
	started := time.Now()
	res := &result{Workload: w.Name, Metrics: make(map[string]measurement)}
	spec := sz.apply(w.Train)
	nodeRounds := spec.Nodes * spec.Rounds

	// Warm-up: short untimed trainings until the process has been busy for
	// sz.TrainWarm. The first few hundred milliseconds of a fresh process run
	// measurably slower (page faults, heap growth, idle vCPUs), and users
	// of a long-lived cluster do not pay that on every run.
	prob := buildProblem(spec, seed)
	for warmStart := time.Now(); time.Since(warmStart) < sz.TrainWarm; {
		in, err := prob.instance(0)
		if err != nil {
			return nil, err
		}
		if _, err := prob.runRep(in, max(spec.Rounds/4, 1), instrumentation{}); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.Name, err)
		}
	}

	var (
		first   = make([]*repRun, spec.Reps)       // pass 0, kept whole for judging
		timings = make([][]trainTiming, spec.Reps) // [rep][pass×cycle]
		setupS  []float64
		inputs  *serveInputs
		windows []*serveWindow
		longest time.Duration
	)
	// A pass is started only while it can be expected to end inside the
	// budget, so the run's length does not depend on the machine's speed.
	for pass := 0; pass < sz.MinPasses || time.Since(started)+longest < sz.Budget; pass++ {
		passStart := time.Now()
		prob = buildProblem(spec, seed)
		setup := time.Since(passStart)
		solved := make([]*linalg.Matrix, spec.Reps)
		for cycle := 0; cycle < spec.Cycles; cycle++ {
			for k := 0; k < spec.Reps; k++ {
				t := time.Now()
				in, err := prob.instance(k)
				if err != nil {
					return nil, err
				}
				// Where set-up is the expensive part (weights.OptimizeBest), the
				// later cycles train on the matrix the first one solved: more
				// samples of the measured phase for one set-up.
				if solved[k] != nil {
					in.w = solved[k]
				}
				setup += time.Since(t)
				run, err := prob.runRep(in, spec.Rounds, instrumentation{})
				res.Attempted += nodeRounds
				if err != nil {
					res.fail(nodeRounds, "pass %d cycle %d rep %d: %v", pass, cycle, k, err)
					continue
				}
				setup += run.setup
				solved[k] = run.w
				timings[k] = append(timings[k], timingOf(run))
				if first[k] == nil {
					first[k] = run
				}
			}
		}
		if pass == 0 {
			// The serving half swaps between iterates of the first rep; the
			// request bodies are the generator's, built off the clock.
			var vecs []linalg.Vector
			if first[0] != nil {
				vecs = quartileVectors(first[0].sinks)
			}
			var err error
			if inputs, err = buildServeInputs(w.Serve, prob, vecs); err != nil {
				return res, err
			}
		}
		win, serveSetup, err := serveOnce(inputs, sz)
		if err != nil {
			return nil, err
		}
		windows = append(windows, win)
		setupS = append(setupS, (setup + serveSetup).Seconds())
		longest = max(longest, time.Since(passStart))
	}
	passes := len(windows)

	// Judging, off the clock.
	lref, _, err := prob.reference()
	if err != nil {
		return nil, err
	}
	// Every training of a rep does bit-identical work; what differs is the
	// box. Over TCP (many goroutines, sockets, wake-ups) outside load shows
	// as bursts that only ever add time, and a rep costs what its fastest
	// training took. The simulator's single lockstep loop instead follows
	// the box's CPU speed both ways, its fastest training is a thin lucky
	// tail, and the mean over its trainings is the steadier reading
	// (quartile spread over ten seeds 0.06-0.13 against 0.14-0.19).
	reading := slices.Min[[]float64]
	if spec.Transport == "sim" {
		reading = mean
	}
	// What each pass measured as a whole is kept beside every such reading:
	// the spread of these samples is the noise the run saw.
	var (
		rounds, bytes    float64
		finals           uint64
		toEps, toHorizon float64
		trainings        int
		toEpsByPass      = make([]float64, passes)
		horizonByPass    = make([]float64, passes)
	)
	for k, run := range first {
		if run == nil {
			continue
		}
		in, err := prob.instance(k)
		if err != nil {
			return nil, err
		}
		ev := prob.evaluate(in, run, lref)
		if ev.failure == "" && spec.Delay > 0 {
			ev.failure = prob.checkDelayIndependent(in, spec.Rounds, run, ev, lref)
		}
		for i, tm := range timings[k] {
			if tm.hash != run.hash && ev.failure == "" {
				ev.failure = fmt.Sprintf("training %d snapshots differ from the first (hash %016x vs %016x)", i, tm.hash, run.hash)
			}
		}
		if ev.failure != "" || len(timings[k]) != passes*spec.Cycles {
			res.fail(nodeRounds*len(timings[k]), "rep %d: %s", k, ev.failure)
			continue
		}
		rounds += float64(ev.roundsToEps)
		bytes += ev.bytesToEps
		finals = finals*1099511628211 ^ hashVectors(run.final)
		var epsS, horizonS []float64
		for i, tm := range timings[k] {
			eps, horizon := tm.reached(ev.roundsToEps-1).Seconds(), tm.reached(spec.Rounds-1).Seconds()
			epsS, horizonS = append(epsS, eps), append(horizonS, horizon)
			toEpsByPass[i/spec.Cycles] += eps / float64(spec.Cycles)
			horizonByPass[i/spec.Cycles] += horizon / float64(spec.Cycles)
		}
		toEps += reading(epsS)
		toHorizon += reading(horizonS)
		trainings += len(timings[k])
	}
	if trainings == 0 {
		return res, fmt.Errorf("%s: no training rep passed its checks (%v)", w.Name, res.Failures)
	}

	requests := 0
	byPass := make([]serving, passes) // each window read as one span
	for pass, win := range windows {
		res.Attempted += win.requests
		if win.failed > 0 || win.requests == 0 {
			res.fail(max(win.failed, 1), "pass %d serving: %s", pass, win.failure)
		}
		requests += len(win.replies)
		byPass[pass] = bestSpans(windows[pass:pass+1], len(win.replies), w.Serve.Rows)
	}
	best := bestSpans(windows, sz.ServeSpan, w.Serve.Rows)
	served := func(name, unit string, field func(serving) float64) {
		m := measurement{Value: field(best), Unit: unit, N: requests}
		for _, s := range byPass {
			m.Samples = append(m.Samples, field(s))
		}
		res.Metrics[name] = m
	}
	allRounds := float64(spec.Reps * spec.Rounds)
	for pass, s := range horizonByPass {
		horizonByPass[pass] = allRounds / s // now a rate
	}

	res.set("setup_s", "s", setupS, passes)
	res.Metrics["time_to_eps_s"] = measurement{Value: toEps, Unit: "s", N: trainings, Samples: toEpsByPass}
	res.Metrics["rounds_per_s"] = measurement{Value: allRounds / toHorizon, Unit: "1/s", N: trainings, Samples: horizonByPass}
	res.setExact("rounds_to_eps", "count", rounds, spec.Reps)
	res.setExact("bytes_to_eps", "bytes", bytes, spec.Reps)
	served("predict_rows_per_s", "rows/s", func(s serving) float64 { return s.rowsPS })
	served("predict_p50_ms", "ms", func(s serving) float64 { return s.p50 })
	served("predict_p95_ms", "ms", func(s serving) float64 { return s.p95 })
	served("predict_p99_ms", "ms", func(s serving) float64 { return s.p99 })
	res.FinalParams = fmt.Sprintf("%016x", finals)
	res.WallSeconds = time.Since(started).Seconds()
	return res, nil
}

// checkDelayIndependent reruns a delayed rep without the delay, off the
// clock: the iterates, and so the to-ε counts, must not depend on link
// latency.
func (p *problem) checkDelayIndependent(in *instance, rounds int, delayed *repRun, ev *repEval, lref float64) string {
	q := *p
	q.spec.Delay = 0
	plain, err := q.runRep(in, rounds, instrumentation{})
	if err != nil {
		return "undelayed rerun: " + err.Error()
	}
	if plain.hash != delayed.hash {
		return fmt.Sprintf("iterates depend on link delay (hash %016x delayed, %016x undelayed)", delayed.hash, plain.hash)
	}
	pe := q.evaluate(in, plain, lref)
	if pe.roundsToEps != ev.roundsToEps || pe.bytesToEps != ev.bytesToEps {
		return fmt.Sprintf("to-ε counts depend on link delay (%d rounds/%.0f bytes delayed, %d/%.0f undelayed)",
			ev.roundsToEps, ev.bytesToEps, pe.roundsToEps, pe.bytesToEps)
	}
	return ""
}
