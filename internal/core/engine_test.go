package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/weights"
)

func smallPartitions(t *testing.T, n, samplesPer int, seed int64) (*dataset.Dataset, []*dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: n * samplesPer, Features: 8}, rng)
	parts, err := ds.Partition(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, parts
}

// newTestEngine builds node 0 of a 3-clique; tune, when given, edits the
// config before construction.
func newTestEngine(t *testing.T, policy SendPolicy, tune ...func(*EngineConfig)) *Engine {
	t.Helper()
	_, parts := smallPartitions(t, 3, 30, 1)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLogisticRegression(8)
	cfg := EngineConfig{
		ID:        0,
		Model:     m,
		Data:      parts[0],
		Alpha:     0.05,
		WRow:      w.Row(0),
		Neighbors: g.Neighbors(0),
		Policy:    policy,
		Init:      m.InitParams(7),
		// Tracing stays on in every engine test so the alloc budget below
		// proves the instrumented hot path, not an idealized one.
		Trace: trace.New(trace.Config{Node: 0}),
	}
	for _, f := range tune {
		f(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewEngineValidation(t *testing.T) {
	_, parts := smallPartitions(t, 3, 10, 2)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLogisticRegression(8)
	base := EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.05,
		WRow: w.Row(0), Neighbors: g.Neighbors(0), Init: m.InitParams(1),
	}

	bad := base
	bad.Init = linalg.NewVector(3)
	if _, err := NewEngine(bad); err == nil {
		t.Error("wrong init length accepted")
	}

	bad = base
	bad.Alpha = 0
	if _, err := NewEngine(bad); err == nil {
		t.Error("zero alpha accepted")
	}

	bad = base
	bad.WRow = linalg.Vector{0.3, 0.3, 0.3} // sums to 0.9
	if _, err := NewEngine(bad); err == nil {
		t.Error("non-stochastic weight row accepted")
	}

	bad = base
	bad.WRow = linalg.NewVector(0)
	if _, err := NewEngine(bad); err == nil {
		t.Error("short weight row accepted")
	}

	bad = base
	bad.Neighbors = []int{1} // the row still gives node 2 a third of the mix
	if _, err := NewEngine(bad); err == nil {
		t.Error("weight on a non-neighbor accepted")
	}
}

func TestBuildUpdatePolicies(t *testing.T) {
	// With shared init and no steps yet, SNAP-0 and SNAP send nothing,
	// SNO sends everything.
	all := newTestEngine(t, SendAll)
	u, err := all.BuildUpdate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != all.cfg.Model.NumParams() {
		t.Errorf("SNO sent %d params, want all %d", len(u.Indices), all.cfg.Model.NumParams())
	}

	changed := newTestEngine(t, SendChanged)
	u, err = changed.BuildUpdate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != 0 {
		t.Errorf("SNAP-0 sent %d params before any step, want 0", len(u.Indices))
	}

	selected := newTestEngine(t, SendSelected)
	u, err = selected.BuildUpdate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != 0 {
		t.Errorf("SNAP sent %d params before any step, want 0", len(u.Indices))
	}
}

func TestBuildUpdateAfterStepRespectsThreshold(t *testing.T) {
	eng := newTestEngine(t, SendSelected)
	eng.Step(0)
	u, err := eng.BuildUpdate(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every transmitted parameter moved more than the send threshold; no
	// untransmitted parameter accumulated beyond it.
	_, _, sendThreshold := eng.APEStage()
	sent := make(map[int]bool)
	for _, idx := range u.Indices {
		sent[idx] = true
	}
	for idx := range eng.x {
		delta := math.Abs(eng.x[idx] - eng.lastSent[idx])
		if sent[idx] && delta != 0 {
			t.Errorf("param %d transmitted but lastSent not updated", idx)
		}
		if !sent[idx] && delta > sendThreshold {
			t.Errorf("param %d withheld with delta %v > threshold %v", idx, delta, sendThreshold)
		}
	}
}

func TestIntegrateRejectsNonNeighbor(t *testing.T) {
	eng := newTestEngine(t, SendAll)
	u := &codec.Update{Sender: 99, NumParams: eng.cfg.Model.NumParams()}
	if err := eng.Integrate([]*codec.Update{u}); err == nil {
		t.Error("update from non-neighbor accepted")
	}
}

func TestIntegrateShiftsPrevView(t *testing.T) {
	eng := newTestEngine(t, SendAll)
	p := eng.cfg.Model.NumParams()
	u := &codec.Update{Sender: 1, NumParams: p, Indices: []int{0}, Values: []float64{42}}
	if err := eng.Integrate([]*codec.Update{u}); err != nil {
		t.Fatal(err)
	}
	slot := eng.nbrIdx[1]
	if eng.nbrCur[slot][0] != 42 {
		t.Errorf("neighbor cur view not updated: %v", eng.nbrCur[slot][0])
	}
	if eng.nbrPrev[slot][0] == 42 {
		t.Error("neighbor prev view advanced to the new value too early")
	}
	// Second integrate: prev must now see 42.
	if err := eng.Integrate(nil); err != nil {
		t.Fatal(err)
	}
	if eng.nbrPrev[slot][0] != 42 {
		t.Errorf("neighbor prev view = %v after shift, want 42", eng.nbrPrev[slot][0])
	}
}

// TestEngineMatchesMatrixEXTRA verifies the distributed per-node recursion
// (paper eq. 8) against the centralized matrix form (paper eq. 6), running
// a 4-node ring with full information exchange.
func TestEngineMatchesMatrixEXTRA(t *testing.T) {
	const (
		n     = 4
		alpha = 0.05
		iters = 12
	)
	_, parts := smallPartitions(t, n, 25, 3)
	g := graph.Ring(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLogisticRegression(8)
	p := m.NumParams()
	init := m.InitParams(11)

	// Distributed engines with SendAll (full exchange).
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		eng, err := NewEngine(EngineConfig{
			ID: i, Model: m, Data: parts[i], Alpha: alpha,
			WRow: w.Row(i), Neighbors: g.Neighbors(i),
			Policy: SendAll, Init: init,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}

	// Matrix reference: rows of x are per-node iterates.
	grad := func(x *linalg.Matrix) *linalg.Matrix {
		out := linalg.NewMatrix(n, p)
		for i := 0; i < n; i++ {
			gi := m.Gradient(x.Row(i), parts[i].Samples)
			for j := 0; j < p; j++ {
				out.Set(i, j, gi[j])
			}
		}
		return out
	}
	xPrev := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			xPrev.Set(i, j, init[j])
		}
	}
	wTilde := axpy(linalg.NewMatrix(n, n), 0.5, axpy(w, 1, linalg.Identity(n)))
	gPrev := grad(xPrev)
	xCur := axpy(matMul(w, xPrev), -alpha, gPrev) // x¹

	runRound := func(round int) {
		// Broadcast full params, then integrate and step.
		frames := make([]*codec.Update, n)
		for i, e := range engines {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = u
		}
		for i, e := range engines {
			var inbox []*codec.Update
			for _, j := range g.Neighbors(i) {
				inbox = append(inbox, frames[j])
			}
			if err := e.Integrate(inbox); err != nil {
				t.Fatal(err)
			}
			e.Step(round)
		}
	}

	runRound(0) // engines now hold x¹
	for i := 0; i < n; i++ {
		if !engines[i].Params().Equal(xCur.Row(i), 1e-10) {
			t.Fatalf("x¹ mismatch at node %d", i)
		}
	}

	for k := 1; k < iters; k++ {
		runRound(k)
		gCur := grad(xCur)
		// x^{k+1} = (I+W)x^k − W̃x^{k−1} − α(∇f(x^k) − ∇f(x^{k−1})).
		xNext := axpy(axpy(xCur, 1, matMul(w, xCur)), -1, matMul(wTilde, xPrev))
		xNext = axpy(axpy(xNext, -alpha, gCur), alpha, gPrev)
		xPrev, xCur, gPrev = xCur, xNext, gCur
		for i := 0; i < n; i++ {
			if !engines[i].Params().Equal(xCur.Row(i), 1e-8) {
				t.Fatalf("iteration %d: node %d diverged from matrix EXTRA (max diff %v)",
					k+1, i, engines[i].Params().Sub(xCur.Row(i)).NormInf())
			}
		}
	}
}

// TestEngineMatchesMatrixDGD checks the DGD rule bit for bit against its
// matrix form x^{k+1} = W·x^k − α∇f(x^k) on a 4-node ring. The reference
// sums row i of W·x diagonal first and then the neighbors in id order —
// the order MixTo fixes — so no rounding may differ, and the engine must
// never leave EXTRA's k = 0 step.
func TestEngineMatchesMatrixDGD(t *testing.T) {
	const (
		n     = 4
		alpha = 0.05
		iters = 12
	)
	_, parts := smallPartitions(t, n, 25, 3)
	g := graph.Ring(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLogisticRegression(8)
	init := m.InitParams(11)

	engines := make([]*Engine, n)
	x := make([]linalg.Vector, n) // the reference iterates, one row per node
	for i := range engines {
		eng, err := NewEngine(EngineConfig{
			ID: i, Model: m, Data: parts[i], Alpha: alpha,
			WRow: w.Row(i), Neighbors: g.Neighbors(i),
			Policy: SendAll, DGD: true, Init: init,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i], x[i] = eng, init
	}

	for round := 0; round < iters; round++ {
		next := make([]linalg.Vector, n)
		for i := range next {
			row := x[i].Scale(w.At(i, i))
			for j := range x {
				if j != i && w.At(i, j) != 0 {
					row.AXPYInPlace(w.At(i, j), x[j])
				}
			}
			next[i] = row.AXPYInPlace(-alpha, m.Gradient(x[i], parts[i].Samples))
		}
		x = next

		frames := make([]*codec.Update, n)
		for i, e := range engines {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = u
		}
		for i, e := range engines {
			var inbox []*codec.Update
			for _, j := range g.Neighbors(i) {
				inbox = append(inbox, frames[j])
			}
			if err := e.Integrate(inbox); err != nil {
				t.Fatal(err)
			}
			got := e.Step(round)
			if e.k != 0 {
				t.Fatalf("round %d: node %d left the first step (k = %d)", round, i, e.k)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(x[i][j]) {
					t.Fatalf("round %d: node %d param %d = %v, matrix DGD %v", round, i, j, got[j], x[i][j])
				}
			}
		}
	}
}

// axpy returns x + c·y for matrices of one shape.
func axpy(x *linalg.Matrix, c float64, y *linalg.Matrix) *linalg.Matrix {
	out := x.Clone()
	linalg.Vector(out.Data).AXPYInPlace(c, y.Data)
	return out
}

// matMul returns the matrix product a·b.
func matMul(a, b *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		row := linalg.Vector(out.Data[i*out.Cols : (i+1)*out.Cols])
		for k := 0; k < a.Cols; k++ {
			row.AXPYInPlace(a.At(i, k), b.Row(k))
		}
	}
	return out
}

func TestSendPolicyString(t *testing.T) {
	if SendSelected.String() != "snap" || SendChanged.String() != "snap-0" || SendAll.String() != "sno" {
		t.Error("policy names wrong")
	}
	if SendPolicy(42).String() != "SendPolicy(42)" {
		t.Errorf("unknown policy = %q", SendPolicy(42).String())
	}
}

func TestEngineAPEStageAdvances(t *testing.T) {
	eng := newTestEngine(t, SendSelected)
	// Drive enough iterations to cross at least one APE stage; with the
	// default (no recursion restart) the stage advances but the recursion
	// keeps running.
	for round := 0; round < 40; round++ {
		eng.Step(round)
	}
	if stage, _, _ := eng.APEStage(); stage == 0 {
		t.Error("APE schedule never advanced in 40 iterations")
	}
	if eng.Restarts() != 0 {
		t.Errorf("recursion restarted %d times with RestartRecursion off", eng.Restarts())
	}
}

func TestEngineRestartsWhenRequested(t *testing.T) {
	_, parts := smallPartitions(t, 3, 30, 1)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLogisticRegression(8)
	eng, err := NewEngine(EngineConfig{
		ID: 0, Model: m, Data: parts[0], Alpha: 0.05,
		WRow: w.Row(0), Neighbors: g.Neighbors(0),
		Policy: SendSelected,
		APE:    APEConfig{RestartRecursion: true},
		Init:   m.InitParams(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		eng.Step(round)
	}
	if eng.Restarts() == 0 {
		t.Error("no EXTRA restart after 40 iterations with RestartRecursion on")
	}
}

func TestEngineReconfigure(t *testing.T) {
	eng := newTestEngine(t, SendSelected)
	for round := 0; round < 5; round++ {
		eng.Step(round)
	}
	restartsBefore := eng.Restarts()

	// New cluster: neighbor 2 left, neighbor 3 joined (sparse row in
	// node-id space).
	row := linalg.Vector{0.4, 0.3, 0, 0.3}
	if err := eng.Reconfigure(row, []int{3, 1}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := eng.Neighbors(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Neighbors() = %v, want [1 3]", got)
	}
	if eng.Restarts() != restartsBefore+1 {
		t.Errorf("Reconfigure did not restart the recursion (restarts %d -> %d)",
			restartsBefore, eng.Restarts())
	}
	if eng.k != 0 {
		t.Errorf("k = %d after Reconfigure, want 0", eng.k)
	}
	// The view of the new neighbor is seeded with our own iterate.
	if got := eng.nbrCur[eng.nbrIdx[3]]; math.Abs(got[0]-eng.x[0]) > 1e-15 {
		t.Errorf("new neighbor view[0] = %g, want own x[0] = %g", got[0], eng.x[0])
	}
	if _, ok := eng.nbrIdx[2]; ok {
		t.Error("removed neighbor 2 still has a view")
	}
	// The switch forces a full send regardless of policy.
	u, err := eng.BuildUpdate(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != eng.cfg.Model.NumParams() {
		t.Errorf("post-reconfigure update carries %d params, want all %d",
			len(u.Indices), eng.cfg.Model.NumParams())
	}
	// A further step runs the k=0 recursion without touching the old
	// neighbor-prev state.
	eng.Step(7)

	if err := eng.Reconfigure(linalg.Vector{1}, nil); err != nil {
		t.Fatalf("Reconfigure to solo: %v", err)
	}
	eng.Step(8)

	if err := eng.Reconfigure(linalg.Vector{0.5, 0.4}, []int{1}); err == nil {
		t.Error("non-stochastic row accepted")
	}
	if err := eng.Reconfigure(linalg.Vector{}, nil); err == nil {
		t.Error("short row accepted")
	}
	if err := eng.Reconfigure(linalg.Vector{0.4, 0.3, 0.3}, []int{1}); err == nil {
		t.Error("weight on non-neighbor 2 accepted")
	}
}

func TestEngineRestartNow(t *testing.T) {
	eng := newTestEngine(t, SendAll)
	for round := 0; round < 3; round++ {
		eng.Step(round)
	}
	if eng.k == 0 {
		t.Fatal("k did not advance")
	}
	before := eng.Restarts()
	eng.RestartNow()
	if eng.k != 0 || eng.Restarts() != before+1 {
		t.Errorf("RestartNow: k = %d, restarts %d -> %d", eng.k, before, eng.Restarts())
	}
	eng.Step(3)
	if eng.k != 1 {
		t.Errorf("k = %d after post-restart step, want 1", eng.k)
	}
}
