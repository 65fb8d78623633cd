package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkFile keeps the in-code catalogue and the
// driver's BENCHMARK.json equal, and both inside the driver's limits.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, rep counts are sized for %d", bf.RunSeconds, nominalSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/snapbench" {
		t.Errorf("paths = %v, want [cmd/snapbench]", bf.Paths)
	}
	var gated []workload // the driver runs the workloads that are steady enough to gate on
	for _, w := range workloads {
		if w.Ungated == "" {
			gated = append(gated, w)
		}
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in code (driver allows 2-8)", n, len(gated))
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code (driver allows 1-16)", n, len(endToEnd))
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (driver allows 1-128)", n, len(perLayer))
	}
	seen := make(map[string]bool)
	use := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the allowed alphabet or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		use("workload", w.Name)
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their reasons differ)", i, w.Name, gated[i].Name)
		}
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, m := range bf.EndToEnd {
		use("end-to-end metric", m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound: %+v", m.Name, m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bf.PerLayer {
		use("per-layer metric", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction: %+v", m.Name, m)
		}
		if layer, _, ok := strings.Cut(m.Name, "."); !ok || layer != d.Layer {
			t.Errorf("per-layer metric %s is not prefixed by its layer %q", m.Name, d.Layer)
		}
	}
}

// lastLine decodes the driver's result object from the end of out.
func lastLine(t *testing.T, out string) driverResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res driverResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q is not a result object: %v", lines[len(lines)-1], err)
	}
	return res
}

// checkMetrics asserts a driver result holds exactly the catalogue's
// metrics with their units, none of them missing or non-finite.
func checkMetrics(t *testing.T, res driverResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, catalogue has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestEveryWorkloadTiny runs both pass types of every workload at the
// smoke scale: every correctness gate passes and every catalogued metric
// is reported exactly once. No timing is asserted.
func TestEveryWorkloadTiny(t *testing.T) {
	traceDir := t.TempDir()
	sz := sizingFor(nominalSeconds, true)
	micro, err := isolatedCalls(sz) // workload-independent: once for all five
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if testing.Short() && wl.Train.Delay > 0 {
			continue // the injected link delay dominates even tiny runs
		}
		t.Run(wl.Name, func(t *testing.T) {
			var out bytes.Buffer
			o := options{workload: wl.Name, seed: 3, seconds: nominalSeconds, trace: 0, scale: "tiny"}
			if code, err := run(o, nil, &out); err != nil || code != 0 {
				t.Fatalf("end-to-end pass: exit %d, err %v\n%s", code, err, out.String())
			}
			checkMetrics(t, lastLine(t, out.String()), endToEnd)

			out.Reset()
			res, err := runTraced(wl, o.seed, sz, traceDir, micro)
			if err != nil {
				t.Fatal(err)
			}
			if code, err := emitDriverResult(&out, res, perLayer); err != nil || code != 0 {
				t.Fatalf("traced pass: exit %d, err %v\n%s", code, err, out.String())
			}
			checkMetrics(t, lastLine(t, out.String()), perLayer)

			spans, err := os.ReadFile(filepath.Join(traceDir, wl.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(string(spans), "\n")
			var s map[string]any
			if err := json.Unmarshal([]byte(first), &s); err != nil {
				t.Fatalf("span line %q: %v", first, err)
			}
			for _, key := range []string{"workload", "rep", "node", "round", "name", "start_ns", "end_ns", "parent"} {
				if _, ok := s[key]; !ok {
					t.Errorf("span line lacks %q: %s", key, first)
				}
			}
			if _, err := os.Stat(filepath.Join(traceDir, wl.Name+".selftime.txt")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReportRoundTripAndCompare writes a full-mode report, reads it back
// unchanged, and checks the comparison's three verdicts.
func TestReportRoundTripAndCompare(t *testing.T) {
	base := &report{Env: stampEnvironment(1, nominalSeconds), Correct: true}
	res := &result{Workload: "tcp-svm-k5-wan", Metrics: make(map[string]measurement), Attempted: 100}
	for _, d := range endToEnd {
		res.set(d.Name, d.Unit, []float64{100, 100.5, 101}, 3)
	}
	base.EndToEnd = []*result{res}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := writeReport(path, base); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Errorf("report changed in a JSON round trip:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"claim":null`) {
		t.Error("report must carry claim: null")
	}

	var out bytes.Buffer
	if !compare(&out, base, back) || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical reports must compare ok:\n%s", out.String())
	}
	slower := *res
	slower.Metrics = map[string]measurement{}
	for name, m := range res.Metrics {
		slower.Metrics[name] = m
	}
	m := slower.Metrics["time_to_eps_s"]
	m.Value *= 1.5
	slower.Metrics["time_to_eps_s"] = m
	out.Reset()
	if compare(&out, base, &report{EndToEnd: []*result{&slower}}) || !strings.Contains(out.String(), "OUTSIDE BOUND") {
		t.Errorf("a 50%% slower time_to_eps_s must fall outside its bound:\n%s", out.String())
	}
	ungated := slower
	ungated.Workload = "tcp-svm-k5"
	baseUngated := *res
	baseUngated.Workload = "tcp-svm-k5"
	out.Reset()
	if !compare(&out, &report{EndToEnd: []*result{&baseUngated}}, &report{EndToEnd: []*result{&ungated}}) || !strings.Contains(out.String(), "not gated") {
		t.Errorf("a workload that is not gated must not fail the comparison:\n%s", out.String())
	}
	noisy := slower
	noisy.Metrics = map[string]measurement{}
	for name, m := range res.Metrics {
		m.Samples = []float64{60, 100, 140}
		noisy.Metrics[name] = m
	}
	out.Reset()
	if !compare(&out, base, &report{EndToEnd: []*result{&noisy}}) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a side whose spread exceeds the bound must read unresolved:\n%s", out.String())
	}
}

// TestBestSpans pins the serving readings: each comes from the span where
// it reads best, and a span crossing into the next window runs its clock
// from that window's start, not from the previous window's last reply.
func TestBestSpans(t *testing.T) {
	window := func(latency time.Duration, n int) *serveWindow {
		w := &serveWindow{}
		for i := 1; i <= n; i++ {
			w.replies = append(w.replies, reply{at: time.Duration(i) * latency, latency: latency})
		}
		return w
	}
	slow, fast := window(4*time.Millisecond, 10), window(2*time.Millisecond, 10)
	got := bestSpans([]*serveWindow{slow, fast}, 10, 32)
	if want := 32 / 0.002; math.Abs(got.rowsPS-want) > 1e-6 || got.p50 != 2 || got.p95 != 2 || got.p99 != 2 {
		t.Errorf("best span: %+v; want %.1f rows/s and 2 ms throughout", got, want)
	}
	// Five slow replies and five fast ones: 5×4 ms + 5×2 ms of serving.
	got = bestSpans([]*serveWindow{window(4*time.Millisecond, 5), window(2*time.Millisecond, 5)}, 10, 1)
	if want := 10 / 0.030; math.Abs(got.rowsPS-want) > 1e-6 || got.p50 != 3 || got.p99 != 4 {
		t.Errorf("crossing span: %+v; want %.3f rows/s, p50 3, p99 4", got, want)
	}
	if got := bestSpans([]*serveWindow{{}}, 10, 1); !math.IsNaN(got.rowsPS) {
		t.Errorf("no replies must read NaN, got %+v", got)
	}
}
