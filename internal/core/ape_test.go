package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

func TestAPEControllerRequiresAlpha(t *testing.T) {
	if _, err := NewAPEController(APEConfig{}, 1.0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestAPEControllerInitialThreshold(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.01}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	// T_0 = 0.1 × 2.0 (defaults: fraction 0.1).
	if got := c.Threshold(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("T_0 = %v, want 0.2", got)
	}
	// maxDelta = T / (I·(1+αG)^I) with I=10 and the default coupling
	// G = 0.02/α, i.e. αG = 0.02.
	want := 0.2 / (10 * math.Pow(1.02, 10))
	if got := c.SendThreshold(); math.Abs(got-want) > 1e-12 {
		t.Errorf("maxDelta = %v, want %v", got, want)
	}
}

func TestAPEControllerStageLastsAtLeastConfiguredIterations(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.01, StageIterations: 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for !c.AfterIteration() {
		iters++
		if iters > 1000 {
			t.Fatal("stage never ended")
		}
	}
	iters++ // count the ending iteration
	if iters < 10 {
		t.Errorf("stage lasted %d iterations, want ≥ 10", iters)
	}
	// With αG = 0.01 the estimate only slightly outpaces the bound; the
	// stage should end within a few extra iterations, not hundreds.
	if iters > 30 {
		t.Errorf("stage lasted %d iterations, expected ≈ 10–15", iters)
	}
}

func TestAPEControllerDecaysAndExhausts(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.01, Epsilon: 1e-3, Decay: 0.5}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// T_0 = 0.1; halving reaches < 1e-3 after 7 stage ends.
	prevT := c.Threshold()
	stages := 0
	for !c.Exhausted() {
		if c.AfterIteration() {
			stages++
			if !c.Exhausted() {
				if got := c.Threshold(); got >= prevT {
					t.Fatalf("threshold did not decay: %v -> %v", prevT, got)
				}
				prevT = c.Threshold()
			}
		}
		if stages > 100 {
			t.Fatal("controller never exhausted")
		}
	}
	if got := c.Threshold(); got <= 0 || got >= 1e-3 {
		t.Errorf("exhausted controller threshold = %v, want small positive (< ε)", got)
	}
	if got := c.SendThreshold(); got <= 0 || got >= c.Threshold() {
		t.Errorf("exhausted controller send threshold = %v, want in (0, T)", got)
	}
	// Once exhausted, AfterIteration never reports a stage end.
	if c.AfterIteration() {
		t.Error("exhausted controller reported stage end")
	}
	if stages != 7 {
		t.Errorf("stages = %d, want 7 (0.1 × 0.5^7 < 1e-3)", stages)
	}
}

func TestAPEControllerTinyInitExhaustsImmediately(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.01}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exhausted() {
		t.Error("near-zero initial params should exhaust the schedule immediately")
	}
	if c.SendThreshold() > 1e-9 {
		t.Errorf("exhausted controller send threshold = %v, want tiny", c.SendThreshold())
	}
}

func TestAPEControllerStageCounter(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.1, G: 1, StageIterations: 2, Epsilon: 1e-12}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stage() != 0 {
		t.Errorf("initial stage = %d", c.Stage())
	}
	for i := 0; i < 500 && c.Stage() < 3; i++ {
		c.AfterIteration()
	}
	if c.Stage() != 3 {
		t.Errorf("stage = %d after many iterations, want 3", c.Stage())
	}
}

// TestAPEZeroInitDegradesToSnapZero pins the zero-init edge case: with a
// zero (or sub-Epsilon) initial parameter vector, T₀ = InitialFraction ×
// mean|x⁰| starts below Epsilon, so the schedule must exhaust immediately
// with a zero send threshold — SNAP degrades to SNAP-0 (send every
// changed parameter) rather than silently withholding updates against a
// meaningless threshold. The engine-level check runs a SNAP cluster and a
// SNAP-0 cluster from the same zero init in lockstep and requires
// bit-identical updates and iterates.
func TestAPEZeroInitDegradesToSnapZero(t *testing.T) {
	c, err := NewAPEController(APEConfig{Alpha: 0.1}, 0)
	if err != nil {
		t.Fatalf("zero-init controller must construct gracefully, got %v", err)
	}
	if !c.Exhausted() {
		t.Error("zero-init schedule not exhausted immediately")
	}
	if got := c.SendThreshold(); got != 0 {
		t.Errorf("zero-init send threshold = %v, want 0 (exact SNAP-0 behavior)", got)
	}

	const (
		n      = 3
		rounds = 15
	)
	_, parts := smallPartitions(t, n, 40, 5)
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	zeroInit := make(linalg.Vector, m.NumParams())

	build := func(policy SendPolicy) []*Engine {
		engines := make([]*Engine, n)
		for i := 0; i < n; i++ {
			eng, err := NewEngine(EngineConfig{
				ID: i, Model: m, Data: parts[i], Alpha: 0.1,
				WRow: w.Row(i), Neighbors: g.Neighbors(i),
				Policy: policy, Init: zeroInit,
			})
			if err != nil {
				t.Fatalf("policy %v node %d: %v", policy, i, err)
			}
			engines[i] = eng
		}
		return engines
	}
	snap := build(SendSelected)
	snap0 := build(SendChanged)

	step := func(engines []*Engine, round int) [][]byte {
		frames := make([][]byte, n)
		for i, e := range engines {
			u, err := e.BuildUpdate(round)
			if err != nil {
				t.Fatal(err)
			}
			frame, _, err := codec.EncodeTo(nil, u)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = frame
		}
		for i, e := range engines {
			var updates []*codec.Update
			for _, j := range g.Neighbors(i) {
				u := &codec.Update{}
				if err := codec.DecodeInto(u, frames[j]); err != nil {
					t.Fatal(err)
				}
				updates = append(updates, u)
			}
			if err := e.Integrate(updates); err != nil {
				t.Fatal(err)
			}
			e.Step(round)
		}
		return frames
	}

	for round := 0; round < rounds; round++ {
		fa := step(snap, round)
		fb := step(snap0, round)
		for i := range fa {
			if !bytes.Equal(fa[i], fb[i]) {
				t.Fatalf("round %d node %d: zero-init SNAP frame differs from SNAP-0", round, i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !snap[i].Params().Equal(snap0[i].Params(), 0) {
			t.Errorf("node %d: zero-init SNAP iterate diverged from SNAP-0", i)
		}
	}
}
