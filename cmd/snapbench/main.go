// Command snapbench is the repository's benchmark: five workloads, each a
// training half (time, rounds and socket bytes to a target loss) and a
// serving half (rows/s and latency through POST /v1/predict under
// hot-swaps), measured end to end with every knob at its shipped default,
// plus a traced pass that times every layer from outside. See README.md.
//
//	go run ./cmd/snapbench                          all workloads, both passes
//	go run ./cmd/snapbench -workload W -trace 0|1   one pass of one workload;
//	                                                last line is one JSON object
//	go run ./cmd/snapbench -compare a.json b.json   judge two -out reports
//	go run ./cmd/snapbench -selfcheck               two full sets, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	traceDir  string
	scale     string
	compare   bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "length of one run: passes of set-up, trainings and a serving window repeat until it is spent")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only; with -workload the last stdout line is the result object")
	flag.StringVar(&o.out, "out", "", "write the full JSON report to this file")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write <workload>.jsonl spans and <workload>.selftime.txt here")
	flag.StringVar(&o.scale, "scale", "full", `"full" or "tiny" (seconds-long smoke sizes, for tests)`)
	flag.BoolVar(&o.compare, "compare", false, "compare two reports given as arguments: a.json b.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets back to back and compare them")
	flag.Parse()
	code, err := run(o, flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options, args []string, stdout io.Writer) (int, error) {
	switch {
	case o.compare:
		if len(args) != 2 {
			return 2, errors.New("-compare needs two report files")
		}
		a, err := readReport(args[0])
		if err != nil {
			return 2, err
		}
		b, err := readReport(args[1])
		if err != nil {
			return 2, err
		}
		if !compare(stdout, a, b) {
			return 1, nil
		}
		return 0, nil
	case o.scale != "full" && o.scale != "tiny":
		return 2, fmt.Errorf("unknown -scale %q", o.scale)
	case o.seconds <= 0:
		return 2, errors.New("-seconds must be positive")
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	sz := sizingFor(o.seconds, o.scale == "tiny")

	if o.selfcheck {
		first, err := fullRun(o, selected, sz, io.Discard)
		if err != nil {
			return 1, err
		}
		second, err := fullRun(o, selected, sz, io.Discard)
		if err != nil {
			return 1, err
		}
		within := compare(stdout, first, second)
		if !within || !first.Correct || !second.Correct {
			return 1, nil
		}
		return 0, nil
	}
	rep, err := fullRun(o, selected, sz, stdout)
	if err != nil {
		return 1, err
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return 1, err
		}
	}
	// One pass type of one workload is what the benchmark driver runs: it
	// reads the result object from the last line of stdout.
	switch {
	case o.workload != "" && o.trace == 0:
		return emitDriverResult(stdout, rep.EndToEnd[0], endToEnd)
	case o.workload != "" && o.trace == 1:
		return emitDriverResult(stdout, rep.PerLayer[0], perLayer)
	case !rep.Correct:
		return 1, fmt.Errorf("%d operations failed a correctness check", rep.failed())
	}
	return 0, nil
}

// fullRun measures the selected workloads untraced, then traced (unless
// -trace restricts it to one pass type), printing every metric by name.
func fullRun(o options, selected []workload, sz sizing, w io.Writer) (*report, error) {
	rep := &report{Env: stampEnvironment(o.seed, o.seconds)}
	if o.trace != 1 {
		for _, wl := range selected {
			load := loadAverage()
			res, err := runEndToEnd(wl, o.seed, sz)
			if err != nil {
				return nil, err
			}
			noiseGuard(res, load)
			printResult(w, res, append(slices.Clip(endToEnd), ungatedEndToEnd...))
			rep.EndToEnd = append(rep.EndToEnd, res)
		}
	}
	if o.trace != 0 {
		// The isolated calls do not depend on the workload: measure once.
		micro, err := isolatedCalls(sz)
		if err != nil {
			return nil, err
		}
		for _, wl := range selected {
			load := loadAverage()
			res, err := runTraced(wl, o.seed, sz, o.traceDir, micro)
			if err != nil {
				return nil, err
			}
			noiseGuard(res, load)
			printResult(w, res, perLayer)
			rep.PerLayer = append(rep.PerLayer, res)
		}
	}
	rep.Correct = rep.failed() == 0
	return rep, nil
}

// driverResult is the one-line object the benchmark driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitDriverResult prints the driver's object, holding exactly the
// catalogue's metrics, as one line.
func emitDriverResult(stdout io.Writer, res *result, defs []metricDef) (int, error) {
	out := driverResult{Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: make(map[string]driverMetric)}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return 1, fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: d.Unit}
	}
	out.Correct = res.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}
