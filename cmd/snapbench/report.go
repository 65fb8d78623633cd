package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment stamps a report with what it ran on.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func stampEnvironment(seed int64, seconds float64) environment {
	return environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), Seed: seed, Seconds: seconds,
	}
}

// commit prefers the revision the toolchain stamped into the binary and
// falls back to asking git; a plain source tree has neither.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// loadAverage is the 1-minute load average, or -1 where /proc is absent
// (JSON cannot carry a NaN).
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	first, _, _ := strings.Cut(string(b), " ")
	v, err := strconv.ParseFloat(first, 64)
	if err != nil {
		return -1
	}
	return v
}

// noiseGuard stamps a result with the load it started under; above
// 1.5×nproc the numbers are flagged rather than silently reported.
func noiseGuard(res *result, load float64) {
	res.Load1 = load
	res.Noisy = load > 1.5*float64(runtime.NumCPU())
}

// report is the full-mode JSON document: every workload, both pass types.
type report struct {
	Env      environment `json:"environment"`
	Claim    *string     `json:"claim"` // always null: the benchmark claims no gain
	EndToEnd []*result   `json:"end_to_end"`
	PerLayer []*result   `json:"per_layer"`
	Correct  bool        `json:"correct"`
}

func (r *report) failed() int {
	n := 0
	for _, res := range append(append([]*result{}, r.EndToEnd...), r.PerLayer...) {
		n += res.Failed
	}
	return n
}

func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult lists every metric of a result by name, with unit and the
// sample count behind it, in catalogue order.
func printResult(w io.Writer, res *result, defs []metricDef) {
	flag := ""
	if res.Noisy {
		flag = "  NOISY (load above 1.5×nproc at start)"
	}
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, %.1fs wall, load %.2f%s\n", res.Workload, res.Attempted, res.Failed, res.WallSeconds, res.Load1, flag)
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-7s n=%-7d", d.Name, m.Value, m.Unit, m.N)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, " spread %.3f", spread(m.Samples))
		}
		if d.Moves != "" {
			fmt.Fprintf(w, " -> %s", d.Moves)
		}
		if d.Bound == 0 && d.Layer == "" {
			fmt.Fprint(w, " (not gated)")
		}
		fmt.Fprintln(w)
	}
	if res.FinalParams != "" {
		fmt.Fprintf(w, "  %-34s %16s\n", "final_params_fnv64", res.FinalParams)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// worse reports by what share b is worse than a for a metric's direction
// (negative when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints one row per workload × end-to-end metric and returns
// whether b stayed within every bound on the gated workloads. A pairing
// whose within-run spread exceeds the bound on either side is unresolved,
// not passed: one run per side cannot separate a change that small from
// noise. Failed operations count on every workload.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	byName := make(map[string]*result)
	for _, res := range b.EndToEnd {
		byName[res.Workload] = res
	}
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse_by", "bound", "verdict")
	for _, ra := range a.EndToEnd {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-20s missing from the second report\n", ra.Workload)
			ok = false
			continue
		}
		wl, _ := findWorkload(ra.Workload)
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			by := worse(d, ma.Value, mb.Value)
			verdict := "ok"
			switch {
			case by > d.Bound && wl.Ungated != "":
				verdict = "outside bound (workload not gated)"
			case by > d.Bound:
				verdict, ok = "OUTSIDE BOUND", false
			case spread(ma.Samples) > d.Bound || spread(mb.Samples) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %+9.3f %7.2f  %s\n", ra.Workload, d.Name, ma.Value, mb.Value, by, d.Bound, verdict)
		}
		if ra.FinalParams != rb.FinalParams {
			fmt.Fprintf(w, "%-20s final_params_fnv64 %s vs %s  (differs: compare only reports of one seed and one -seconds)\n", ra.Workload, ra.FinalParams, rb.FinalParams)
		}
		if shareFailed(rb) > shareFailed(ra) {
			fmt.Fprintf(w, "%-20s ops_failed share rose from %.4f to %.4f  OUTSIDE BOUND\n", ra.Workload, shareFailed(ra), shareFailed(rb))
			ok = false
		}
	}
	return ok
}

func shareFailed(r *result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
