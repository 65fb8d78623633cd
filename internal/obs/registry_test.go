package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentMetrics hammers one counter, gauge and histogram from many
// goroutines; run under -race this gates the atomic implementations the
// transport and engine hot paths rely on.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total")
			g := r.Gauge("g")
			h := r.Histogram("h_seconds", TimeBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(0.001 * float64(i%10))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("c_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("h_seconds", TimeBuckets)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Sum under concurrent CAS must be exact: each worker observes
	// 100 repetitions of 0+0.001+...+0.009 = 0.045 per 10 observations.
	want := float64(workers) * float64(perWorker/10) * 0.045
	if got := h.Sum(); got < want*0.999999 || got > want*1.000001 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestNilRegistrySafe verifies the nil-safety contract: detached metrics
// work, exposition is empty.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(2)
	r.Histogram("z", []float64{1}).Observe(0.5)
	if got := r.Text(); got != "" {
		t.Errorf("nil registry text = %q, want empty", got)
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("nil registry snapshot has %d entries", len(got))
	}

	var o *Observer
	o.Counter("x").Inc()
	o.Emit(0, EvRoundStart, 0, -1, nil)
}

// TestTextGolden pins the exact Prometheus text exposition for a small
// registry: TYPE comments once per family, sorted series, labeled
// histogram buckets with cumulative counts and a +Inf terminal bucket.
func TestTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label(MLinkBytesSent, "peer", "1")).Add(300)
	r.Counter(Label(MLinkBytesSent, "peer", "2")).Add(50)
	r.Gauge(Label(MAPEStage, "node", "0")).Set(3)
	h := r.Histogram(MGatherWait, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	const want = `# TYPE snap_ape_stage gauge
snap_ape_stage{node="0"} 3
# TYPE snap_gather_wait_seconds histogram
snap_gather_wait_seconds_bucket{le="0.01"} 2
snap_gather_wait_seconds_bucket{le="0.1"} 3
snap_gather_wait_seconds_bucket{le="1"} 3
snap_gather_wait_seconds_bucket{le="+Inf"} 4
snap_gather_wait_seconds_sum 5.06
snap_gather_wait_seconds_count 4
# TYPE snap_link_bytes_sent_total counter
snap_link_bytes_sent_total{peer="1"} 300
snap_link_bytes_sent_total{peer="2"} 50
`
	if got := r.Text(); got != want {
		t.Errorf("text exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabeledHistogramText checks the label block merges with le.
func TestLabeledHistogramText(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label(MPhaseSeconds, "phase", "build"), []float64{1})
	h.Observe(0.5)
	got := r.Text()
	for _, want := range []string{
		`snap_round_phase_seconds_bucket{phase="build",le="1"} 1`,
		`snap_round_phase_seconds_bucket{phase="build",le="+Inf"} 1`,
		`snap_round_phase_seconds_sum{phase="build"} 0.5`,
		`snap_round_phase_seconds_count{phase="build"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
}

// TestHistogramBucketsCopies: Buckets hands the caller slices it owns.
// Scribbling on them must not change what the next caller (the /metrics
// scrape, a snapshot) reads.
func TestHistogramBucketsCopies(t *testing.T) {
	h := NewRegistry().Histogram(MGatherWait, []float64{0.1, 1})
	h.Observe(0.5)
	bounds, cum := h.Buckets()
	for i := range bounds {
		bounds[i] = -1
	}
	for i := range cum {
		cum[i] = -1
	}
	bounds, cum = h.Buckets()
	if len(bounds) != 2 || bounds[0] != 0.1 || bounds[1] != 1 {
		t.Errorf("bounds after mutating a returned slice = %v, want [0.1 1]", bounds)
	}
	if len(cum) != 3 || cum[0] != 0 || cum[1] != 1 || cum[2] != 1 {
		t.Errorf("cumulative counts after mutating a returned slice = %v, want [0 1 1]", cum)
	}
}

// TestFamilyTypeConflictPanics documents that reusing one family across
// metric types is a programming error.
func TestFamilyTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on family type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("dual")
	r.Gauge(Label("dual", "a", "b"))
}
