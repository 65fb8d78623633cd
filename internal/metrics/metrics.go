// Package metrics collects what the paper measures: communication cost
// (bytes weighted by physical hop count), per-iteration traces of cost and
// model quality, and convergence detection. It also renders experiment
// series as aligned text tables and CSV, which is how the benchmark
// harness reports each reproduced figure.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// CostLedger accumulates communication cost. Following the paper §II-B, a
// flow that traverses h physical hops with b payload bytes costs h*b; the
// ledger also tracks raw bytes. It is safe for concurrent use — simulated
// cluster rounds record from many goroutines.
type CostLedger struct {
	mu       sync.Mutex
	cost     float64         // Σ hops × bytes
	bytes    int64           // Σ bytes (unweighted)
	perRound map[int]float64 // round → hop-weighted cost
}

// NewCostLedger returns an empty ledger.
func NewCostLedger() *CostLedger {
	return &CostLedger{perRound: make(map[int]float64)}
}

// Record charges one message of the given payload size crossing hops
// physical links during round.
func (l *CostLedger) Record(round, hops, payloadBytes int) {
	if hops < 0 || payloadBytes < 0 {
		panic(fmt.Sprintf("metrics: negative cost components hops=%d bytes=%d", hops, payloadBytes))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := float64(hops) * float64(payloadBytes)
	l.cost += c
	l.bytes += int64(payloadBytes)
	l.perRound[round] += c
}

// Total returns the hop-weighted cost Σ hops × bytes.
func (l *CostLedger) Total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cost
}

// Bytes returns the unweighted byte total.
func (l *CostLedger) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// RoundCost returns the hop-weighted cost recorded for one round.
func (l *CostLedger) RoundCost(round int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.perRound[round]
}

// PerRound returns the per-round hop-weighted costs as a dense slice from
// round 0 through the largest recorded round.
func (l *CostLedger) PerRound() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	maxRound := -1
	for r := range l.perRound {
		if r > maxRound {
			maxRound = r
		}
	}
	out := make([]float64, maxRound+1)
	for r, c := range l.perRound {
		out[r] = c
	}
	return out
}

// IterationStat is one row of a training trace.
type IterationStat struct {
	Round int
	// Loss is the aggregate training loss. The SNAP drivers (core.Cluster,
	// core.PeerNode) report the objective at the iterates the round
	// started from — the by-product of the round's gradient pass
	// (DESIGN.md §10); the baselines evaluate after the step.
	Loss      float64
	Accuracy  float64 // test accuracy (NaN if not evaluated this round)
	Consensus float64 // max pairwise parameter disagreement across nodes
	RoundCost float64 // hop-weighted bytes this round
}

// Trace is a training run's iteration history.
type Trace struct {
	Stats []IterationStat
}

// Append adds one iteration row.
func (t *Trace) Append(s IterationStat) { t.Stats = append(t.Stats, s) }

// Len returns the number of recorded iterations.
func (t *Trace) Len() int { return len(t.Stats) }

// Last returns the final row; ok is false for an empty trace.
func (t *Trace) Last() (IterationStat, bool) {
	if len(t.Stats) == 0 {
		return IterationStat{}, false
	}
	return t.Stats[len(t.Stats)-1], true
}

// ConvergenceDetector decides when training has converged: the aggregate
// loss has changed by less than RelTol (relative) for Patience consecutive
// iterations, and (for decentralized runs) consensus disagreement is below
// ConsensusTol. The zero value uses the defaults below.
type ConvergenceDetector struct {
	RelTol       float64 // default 1e-4
	Patience     int     // default 3
	ConsensusTol float64 // default +Inf (ignore consensus)

	prevLoss float64
	streak   int
	started  bool
}

// Observe feeds one iteration and reports whether the run is converged as
// of this observation.
func (c *ConvergenceDetector) Observe(loss, consensus float64) bool {
	relTol := c.RelTol
	if relTol <= 0 {
		relTol = 1e-4
	}
	patience := c.Patience
	if patience <= 0 {
		patience = 3
	}
	consensusTol := c.ConsensusTol
	if consensusTol <= 0 {
		consensusTol = math.Inf(1)
	}

	defer func() { c.prevLoss = loss; c.started = true }()
	if !c.started {
		return false
	}
	rel := math.Abs(loss-c.prevLoss) / math.Max(math.Abs(c.prevLoss), 1e-12)
	if rel < relTol && consensus < consensusTol {
		c.streak++
	} else {
		c.streak = 0
	}
	return c.streak >= patience
}

// Series is one named line of an experiment figure: y-values indexed by
// the shared x-axis of a Table.
type Series struct {
	Name   string
	Points []float64
}

// Table is the reproduction of one paper figure: a shared x-axis and one
// series per scheme/curve.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// AddSeries appends a named series; its length must match X.
func (t *Table) AddSeries(name string, points []float64) error {
	if len(points) != len(t.X) {
		return fmt.Errorf("metrics: series %q has %d points, x-axis has %d", name, len(points), len(t.X))
	}
	t.Series = append(t.Series, Series{Name: name, Points: points})
	return nil
}

// Render formats the table with aligned columns, suitable for terminal
// output in the benchmark harness.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	if t.YLabel != "" {
		fmt.Fprintf(&b, "# y: %s\n", t.YLabel)
	}
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i, x := range t.X {
		row := []string{formatNum(x)}
		for _, s := range t.Series {
			row = append(row, formatNum(s.Points[i]))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[c], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteString("\n")
	for i, x := range t.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range t.Series {
			fmt.Fprintf(&b, ",%g", s.Points[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1e5 || (math.Abs(v) < 1e-3 && v != 0):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// CDF returns the empirical CDF of xs evaluated at the given quantile grid
// points: for each q in grid, the fraction of xs ≤ q. xs is not modified.
func CDF(xs []float64, grid []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(grid))
	for i, q := range grid {
		// count of sorted ≤ q
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if sorted[mid] <= q {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if len(sorted) > 0 {
			out[i] = float64(lo) / float64(len(sorted))
		}
	}
	return out
}

// LogGrid returns n log-spaced points from lo to hi (inclusive); lo and hi
// must be positive with lo < hi and n ≥ 2.
func LogGrid(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic(fmt.Sprintf("metrics: bad LogGrid(%g, %g, %d)", lo, hi, n))
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}
