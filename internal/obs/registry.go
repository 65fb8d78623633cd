// Package obs is the observability substrate for SNAP nodes: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms, all safe for concurrent use), a structured
// JSONL round-lifecycle event log, and HTTP exposition in Prometheus text
// format plus a JSON snapshot.
//
// The paper's argument is quantitative — communication cost versus
// convergence — so every quantity it plots (hop-weighted bytes, selected
// parameter counts, APE stage, straggler waits) has a live counterpart
// here that a running testbed cluster can be scraped for mid-training.
//
// All entry points are nil-safe: a nil *Registry hands out detached
// (unregistered but fully functional) metrics and a nil *EventLog
// discards events, so instrumented code needs no conditionals.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced, but exposition assumes it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end. Cumulative bucket counts, sum and count are
// produced at exposition time, matching Prometheus histogram semantics.
type Histogram struct {
	bounds  []float64 // sorted upper bounds (exclusive of the implicit +Inf)
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum (CAS loop)
	count   atomic.Int64
}

// newHistogram copies bounds (which must be sorted ascending).
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and the cumulative count at each bound
// (the final entry is the +Inf bucket, equal to Count). Both slices are
// fresh copies the caller owns: exposition runs concurrently with
// registration, and handing out the live bounds slice would let one
// scraper's caller mutate every other reader's view.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.counts))
	var c int64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

// Default bucket layouts. TimeBuckets spans 100µs to ~30s exponentially —
// wide enough for both an in-process EXTRA step and a full straggler
// timeout wait. SizeBuckets spans 64 B to 16 MB for frame sizes.
var (
	TimeBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
	SizeBuckets = []float64{
		64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
	}
)

// Registry holds named metrics. Names may carry Prometheus-style labels
// (see Label); the family (the part before '{') determines the metric
// type, and registering one family under two types panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	families map[string]string     // guarded by mu; family -> "counter" | "gauge" | "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		families: make(map[string]string),
	}
}

// Label renders a metric name with label pairs: Label("x", "a", "1",
// "b", "2") == `x{a="1",b="2"}`. Pairs must come in key,value order.
func Label(name string, pairs ...string) string {
	if len(pairs) == 0 {
		return name
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: Label(%q) needs key,value pairs, got %d strings", name, len(pairs)))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// family strips the label block from a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// checkFamily panics when one family is registered under two metric
// types. Caller holds r.mu.
func (r *Registry) checkFamily(name, typ string) {
	f := family(name)
	if have, ok := r.families[f]; ok && have != typ {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s", f, have, typ))
	}
	r.families[f] = typ
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a detached counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.checkFamily(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.checkFamily(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (later calls ignore bounds).
// A nil registry returns a detached histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		r.checkFamily(name, "histogram")
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// seriesLabels splits a series name into family and the inner label block
// ("" when unlabeled): `x{a="1"}` -> ("x", `a="1"`).
func seriesLabels(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WriteText renders the registry in Prometheus text exposition format,
// with series sorted by name and one TYPE comment per family.
func (r *Registry) WriteText(w *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)

	typed := make(map[string]bool) // family -> TYPE comment emitted
	for _, name := range names {
		fam, labels := seriesLabels(name)
		if !typed[fam] {
			fmt.Fprintf(w, "# TYPE %s %s\n", fam, r.families[fam])
			typed[fam] = true
		}
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(w, "%s %d\n", name, r.counters[name].Value())
		case r.gauges[name] != nil:
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(r.gauges[name].Value()))
		default:
			h := r.hists[name]
			bounds, cum := h.Buckets()
			for i, b := range bounds {
				fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fam, joinLabels(labels), formatFloat(b), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, joinLabels(labels), cum[len(cum)-1])
			suffix := ""
			if labels != "" {
				suffix = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", fam, suffix, formatFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", fam, suffix, h.Count())
		}
	}
}

// Text returns the Prometheus text exposition as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// joinLabels returns the label block followed by a comma when non-empty,
// ready to be prefixed to the le label.
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// formatFloat renders a float compactly ("0.25", "1", "1e+06").
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      int64     `json:"count"`
}

// Snapshot returns all metrics as a JSON-marshalable map: counters as
// int64, gauges as float64, histograms as HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		bounds, cum := h.Buckets()
		out[n] = HistogramSnapshot{Bounds: bounds, Cumulative: cum, Sum: h.Sum(), Count: h.Count()}
	}
	return out
}
