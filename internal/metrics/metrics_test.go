package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCostLedgerBasics(t *testing.T) {
	l := NewCostLedger()
	l.Record(0, 2, 100) // 200 weighted
	l.Record(0, 1, 50)  // 50 weighted
	l.Record(1, 3, 10)  // 30 weighted
	if got := l.Total(); got != 280 {
		t.Errorf("Total = %v, want 280", got)
	}
	if got := l.Bytes(); got != 160 {
		t.Errorf("Bytes = %v, want 160", got)
	}
	if got := l.RoundCost(0); got != 250 {
		t.Errorf("RoundCost(0) = %v, want 250", got)
	}
	per := l.PerRound()
	if len(per) != 2 || per[0] != 250 || per[1] != 30 {
		t.Errorf("PerRound = %v, want [250 30]", per)
	}
}

func TestCostLedgerConcurrent(t *testing.T) {
	l := NewCostLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Record(i%10, 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 8000 {
		t.Errorf("concurrent Total = %v, want 8000", got)
	}
}

func TestCostLedgerPanicsOnNegative(t *testing.T) {
	l := NewCostLedger()
	defer func() {
		if recover() == nil {
			t.Error("negative hops did not panic")
		}
	}()
	l.Record(0, -1, 5)
}

func TestTraceLast(t *testing.T) {
	var tr Trace
	if _, ok := tr.Last(); ok {
		t.Error("empty trace reported a last row")
	}
	tr.Append(IterationStat{Round: 0, Loss: 1})
	tr.Append(IterationStat{Round: 1, Loss: 0.5})
	last, ok := tr.Last()
	if !ok || last.Round != 1 || last.Loss != 0.5 {
		t.Errorf("Last = %+v, ok=%v", last, ok)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestConvergenceDetector(t *testing.T) {
	d := &ConvergenceDetector{RelTol: 1e-3, Patience: 2}
	losses := []float64{1.0, 0.5, 0.25, 0.2499, 0.24989, 0.249889}
	var convergedAt = -1
	for i, loss := range losses {
		if d.Observe(loss, 0) {
			convergedAt = i
			break
		}
	}
	// Rounds 3,4 are small changes; patience 2 reached at index 4.
	if convergedAt != 4 {
		t.Errorf("converged at %d, want 4", convergedAt)
	}
}

func TestConvergenceDetectorStreakResets(t *testing.T) {
	d := &ConvergenceDetector{RelTol: 1e-3, Patience: 2}
	seq := []float64{1, 1, 0.5, 0.5, 0.5}
	results := make([]bool, len(seq))
	for i, loss := range seq {
		results[i] = d.Observe(loss, 0)
	}
	// After 1,1 streak=1; drop to 0.5 resets; then 0.5,0.5 builds to 2.
	want := []bool{false, false, false, false, true}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("Observe #%d = %v, want %v (results %v)", i, results[i], want[i], results)
		}
	}
}

func TestConvergenceDetectorConsensusGate(t *testing.T) {
	d := &ConvergenceDetector{RelTol: 1e-2, Patience: 1, ConsensusTol: 0.1}
	d.Observe(1.0, 1.0)
	if d.Observe(1.0, 0.5) {
		t.Error("converged despite consensus above tolerance")
	}
	if !d.Observe(1.0, 0.05) {
		t.Error("did not converge with flat loss and small consensus gap")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:  "Fig X",
		XLabel: "servers",
		YLabel: "iterations",
		X:      []float64{20, 60, 100},
	}
	if err := tab.AddSeries("snap", []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddSeries("ps", []float64{11, 22, math.NaN()}); err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	for _, want := range []string{"# Fig X", "servers", "snap", "ps", "20", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "servers,snap,ps\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "20,10,11") {
		t.Errorf("CSV row missing:\n%s", csv)
	}
}

func TestTableAddSeriesLengthMismatch(t *testing.T) {
	tab := &Table{X: []float64{1, 2}}
	if err := tab.AddSeries("bad", []float64{1}); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{XLabel: `x,"label"`, X: []float64{1}}
	if err := tab.AddSeries("a,b", []float64{2}); err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,""label"""`) || !strings.Contains(csv, `"a,b"`) {
		t.Errorf("CSV escaping wrong: %s", csv)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	grid := []float64{0, 1, 2.5, 4, 10}
	got := CDF(xs, grid)
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	got := CDF(nil, []float64{1, 2})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("CDF of empty data = %v, want zeros", got)
	}
}

// Property: CDF is monotone nondecreasing in the grid and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(data [16]float64, gridRaw [8]float64) bool {
		xs := data[:]
		grid := append([]float64(nil), gridRaw[:]...)
		for i := range grid {
			if math.IsNaN(grid[i]) {
				grid[i] = 0
			}
		}
		// Sort the grid to make monotonicity meaningful.
		for i := 1; i < len(grid); i++ {
			for j := i; j > 0 && grid[j] < grid[j-1]; j-- {
				grid[j], grid[j-1] = grid[j-1], grid[j]
			}
		}
		out := CDF(xs, grid)
		prev := 0.0
		for _, v := range out {
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(1e-4, 1, 5)
	if len(g) != 5 {
		t.Fatalf("len = %d", len(g))
	}
	if math.Abs(g[0]-1e-4) > 1e-15 || math.Abs(g[4]-1) > 1e-12 {
		t.Errorf("endpoints = %v, %v", g[0], g[4])
	}
	// Constant ratio between consecutive points.
	r := g[1] / g[0]
	for i := 2; i < len(g); i++ {
		if math.Abs(g[i]/g[i-1]-r) > 1e-9 {
			t.Errorf("ratios not constant: %v", g)
		}
	}
}

func TestLogGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad LogGrid args did not panic")
		}
	}()
	LogGrid(0, 1, 3)
}
