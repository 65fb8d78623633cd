package experiments

import (
	"math"
	"testing"
)

// quickOpt is the shared quick-mode configuration for shape tests.
func quickOpt() Options { return Options{Quick: true, Seed: 1} }

// seriesByName finds a series in a table.
func seriesByName(t *testing.T, fig *FigResult, tableIdx int, name string) []float64 {
	t.Helper()
	tab := fig.Tables[tableIdx]
	for _, s := range tab.Series {
		if s.Name == name {
			return s.Points
		}
	}
	t.Fatalf("table %q has no series %q", tab.Title, name)
	return nil
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig2(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 3 {
		t.Fatalf("fig2 has %d tables, want 3", len(fig.Tables))
	}
	// (a) a sizeable fraction of parameters never changes (paper: >30%;
	// our synthetic digits: >10% exactly, >20% at float32 resolution).
	exact := seriesByName(t, fig, 0, "unchanged(|dx|=0)")
	tiny := seriesByName(t, fig, 0, "unchanged(|dx|<1e-6)")
	if exact[0] < 0.10 {
		t.Errorf("exactly-unchanged fraction at iteration 1 = %v, want ≥ 0.10", exact[0])
	}
	if tiny[0] < 0.20 {
		t.Errorf("tiny-change fraction at iteration 1 = %v, want ≥ 0.20", tiny[0])
	}
	// A parameter EXTRA leaves still stays bit-identical: x⁺ = Wx − α∇f − s
	// reproduces x exactly once the mix, the gradient and the correction
	// have stopped moving it, so almost every float32-resolution
	// "unchanged" parameter is exactly unchanged at float64 too.
	for i := range exact {
		if tiny[i] < exact[i] {
			t.Fatalf("iteration %d: |dx|<1e-6 fraction below |dx|=0 fraction", i+1)
		}
		if exact[i] < 0.9*tiny[i] {
			t.Errorf("iteration %d: |dx|=0 fraction %v below 0.9 × |dx|<1e-6 fraction %v", i+1, exact[i], tiny[i])
		}
	}
	// (b) most parameter differences are small (paper: >90% below 1e-3)
	// and the CDF shifts left (larger) at the later iteration.
	early := seriesByName(t, fig, 1, "iter1")
	lateIter := seriesByName(t, fig, 1, "iter12")
	grid := fig.Tables[1].X
	for i, q := range grid {
		if q >= 1e-3 {
			if early[i] < 0.5 {
				t.Errorf("CDF(|dx| ≤ %g) = %v at iteration 1, want most parameters small", q, early[i])
			}
			break
		}
	}
	// Compare at the 1e-3 grid point: later iterations have more small
	// changes.
	for i, q := range grid {
		if q >= 1e-3 && lateIter[i]+1e-9 < early[i] {
			t.Errorf("CDF at %g did not shift left: iter1=%v iter12=%v", q, early[i], lateIter[i])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig4(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// (a) SNAP tracks centralized within a few points at the end; TernGrad
	// lags at the early/middle iterations.
	central := seriesByName(t, fig, 0, "centralized")
	snap := seriesByName(t, fig, 0, "snap")
	tern := seriesByName(t, fig, 0, "terngrad")
	if d := math.Abs(last(snap) - last(central)); d > 0.05 {
		t.Errorf("final SNAP accuracy %v vs centralized %v (gap %v)", last(snap), last(central), d)
	}
	mid := len(snap) / 3
	if tern[mid] >= snap[mid] {
		t.Errorf("TernGrad accuracy %v not below SNAP %v at iteration %d", tern[mid], snap[mid], mid+1)
	}

	// (b) SNAP per-iteration cost decreases over the run; SNO and PS stay
	// flat.
	snapCost := seriesByName(t, fig, 1, "snap")
	snoCost := seriesByName(t, fig, 1, "sno")
	psCost := seriesByName(t, fig, 1, "ps")
	if last(snapCost) >= snapCost[2] {
		t.Errorf("SNAP per-iteration cost did not decay: round3=%v last=%v", snapCost[2], last(snapCost))
	}
	if snoCost[2] != last(snoCost) {
		t.Errorf("SNO per-iteration cost not flat: %v vs %v", snoCost[2], last(snoCost))
	}
	if psCost[2] != last(psCost) {
		t.Errorf("PS per-iteration cost not flat: %v vs %v", psCost[2], last(psCost))
	}

	// (c) totals: SNAP cheapest among decentralized; SNO ≈ 1.5× PS on K3
	// (paper's observation); SNAP well below PS.
	get := func(name string) float64 { return seriesByName(t, fig, 2, name)[0] }
	if !(get("snap") < get("snap-0") && get("snap-0") < get("sno")) {
		t.Errorf("decentralized cost ordering violated: snap=%v snap-0=%v sno=%v",
			get("snap"), get("snap-0"), get("sno"))
	}
	if get("snap") > 0.6*get("ps") {
		t.Errorf("SNAP total %v not well below PS %v", get("snap"), get("ps"))
	}
	ratio := get("sno") / get("ps")
	if ratio < 1.2 || ratio > 1.8 {
		t.Errorf("SNO/PS ratio = %v, want ≈ 1.5 on K3", ratio)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig5(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// At quick scale the loss branch of the stopping rule masks most of
	// the mixing gain, so we assert the optimized matrix is within
	// detector noise of the plain one (never drastically slower); the
	// strict improvement appears at full scale (see EXPERIMENTS.md) and
	// the underlying spectral improvement is asserted deterministically
	// in internal/weights.
	for _, scheme := range []string{"snap", "snap-0"} {
		plain := seriesByName(t, fig, 0, scheme)
		opt := seriesByName(t, fig, 0, scheme+"+wopt")
		if last(opt) > last(plain)+5 {
			t.Errorf("%s: weight optimization slowed the largest network: %v vs %v",
				scheme, last(opt), last(plain))
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig6(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	snap := seriesByName(t, fig, 0, "snap")
	snap0 := seriesByName(t, fig, 0, "snap-0")
	tern := seriesByName(t, fig, 0, "terngrad")
	// Iterations grow with scale for the decentralized schemes.
	if last(snap) < snap[0] {
		t.Errorf("snap iterations decreased with scale: %v", snap)
	}
	// SNAP stays within a few iterations of SNAP-0 (paper: 3-4 more).
	for i := range snap {
		if math.Abs(snap[i]-snap0[i]) > 15 {
			t.Errorf("snap %v vs snap-0 %v at point %d", snap[i], snap0[i], i)
		}
	}
	// TernGrad is the slowest at every point.
	for i := range tern {
		if tern[i] < snap[i] {
			t.Errorf("terngrad %v below snap %v at point %d", tern[i], snap[i], i)
		}
	}
	// (b): SNAP iterations decrease as the degree grows.
	snapDeg := seriesByName(t, fig, 1, "snap")
	if last(snapDeg) > snapDeg[0] {
		t.Errorf("snap iterations did not fall with degree: %v", snapDeg)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig7(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	central := seriesByName(t, fig, 0, "centralized")
	snap := seriesByName(t, fig, 0, "snap")
	for i := range snap {
		if math.Abs(snap[i]-central[i]) > 0.02 {
			t.Errorf("snap accuracy %v vs centralized %v at point %d", snap[i], central[i], i)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig8(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// (a) at the largest network, SNAP is clearly below PS and TernGrad
	// (the paper reports far larger factors at N=100 full scale; see
	// EXPERIMENTS.md for the magnitude discussion).
	snap := seriesByName(t, fig, 0, "snap")
	ps := seriesByName(t, fig, 0, "ps")
	tern := seriesByName(t, fig, 0, "terngrad")
	// Quick mode runs SNAP ~2x the iterations PS needs (the tight
	// consensus criterion only gates the decentralized schemes), which
	// narrows the gap; at full scale SNAP is 54% of PS (EXPERIMENTS.md).
	if last(snap) > 0.9*last(ps) {
		t.Errorf("snap total %v not below ps %v at the largest scale", last(snap), last(ps))
	}
	if last(snap) > 0.6*last(tern) {
		t.Errorf("snap total %v not well below terngrad %v", last(snap), last(tern))
	}
	// (b) sparse regime: the paper's directly verifiable claim is that in
	// sparsely connected networks even SNO (full vectors to neighbors)
	// costs much less than PS, because PS pays multi-hop routing.
	snoSparse := seriesByName(t, fig, 1, "sno")
	psSparse := seriesByName(t, fig, 1, "ps")
	if snoSparse[0] > 0.8*psSparse[0] {
		t.Errorf("sparse regime: sno %v not below ps %v at the lowest degree", snoSparse[0], psSparse[0])
	}
	snapSparse := seriesByName(t, fig, 1, "snap")
	for i := range snapSparse {
		if snapSparse[i] > snoSparse[i] {
			t.Errorf("snap %v above sno %v at sparse point %d", snapSparse[i], snoSparse[i], i)
		}
	}
	// (c) dense regime: cost rises with degree.
	snapDense := seriesByName(t, fig, 2, "snap")
	if last(snapDense) < snapDense[0] {
		t.Errorf("dense-regime snap cost did not rise with degree: %v", snapDense)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	fig, err := Fig9(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	iters := seriesByName(t, fig, 0, "snap")
	accs := seriesByName(t, fig, 0, "accuracy")
	// More failures → no fewer iterations; ≤35% overhead at 5% loss.
	if last(iters) < iters[0] {
		t.Errorf("iterations fell with failure rate: %v", iters)
	}
	if last(iters) > 1.35*iters[0] {
		t.Errorf("straggler overhead too large: %v vs %v", last(iters), iters[0])
	}
	// Accuracy unaffected (paper's robustness claim).
	for i := range accs {
		if math.Abs(accs[i]-accs[0]) > 0.02 {
			t.Errorf("straggler accuracy shifted: %v", accs)
		}
	}
}

func TestSchemeRunUnknown(t *testing.T) {
	w, err := buildSVM(3, Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schemeRun("nope", topologyFor(3, 2, Options{Quick: true, Seed: 1}), w, Options{Quick: true}, false, 0); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestAllRunsEveryFigure(t *testing.T) {
	// Covered implicitly by the individual shape tests; here we only
	// check the registry wiring with the cheapest possible probe.
	if testing.Short() {
		t.Skip("experiment shape tests are heavy")
	}
	t.Skip("All() is exercised by cmd/snapsim; individual figures are tested above")
}
