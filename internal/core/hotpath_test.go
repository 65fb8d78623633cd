package core

import (
	"math"
	"testing"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/weights"
)

// TestParamsReturnsClone guards the snapshot contract: Params must hand
// back a copy, because the engine recycles its iterate buffer every Step.
// The original bug returned the live vector, so a caller's "snapshot"
// silently tracked (and could corrupt) the optimization state.
func TestParamsReturnsClone(t *testing.T) {
	eng := newTestEngine(t, SendChanged)
	eng.Step(0)

	snap := eng.Params()
	for i := range snap {
		if math.Float64bits(snap[i]) != math.Float64bits(eng.x[i]) {
			t.Fatalf("Params()[%d] = %v, want iterate value %v", i, snap[i], eng.x[i])
		}
	}

	// Mutating the snapshot must not reach the engine.
	before := eng.x.Clone()
	for i := range snap {
		snap[i] = 1e9
	}
	for i := range before {
		if math.Float64bits(eng.x[i]) != math.Float64bits(before[i]) {
			t.Fatalf("mutating Params() result changed engine iterate at %d", i)
		}
	}

	// Stepping the engine must not move an earlier snapshot.
	snap2 := eng.Params()
	want := snap2.Clone()
	eng.Step(1)
	for i := range want {
		if math.Float64bits(snap2[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Step mutated an earlier Params() snapshot at %d", i)
		}
	}
}

// TestParamsIntoNeverAliases guards the copy-into accessor the same way:
// the buffer ParamsInto fills must never alias live engine state, so
// mutating it cannot corrupt the iterate and stepping the engine cannot
// move an earlier snapshot.
func TestParamsIntoNeverAliases(t *testing.T) {
	eng := newTestEngine(t, SendChanged)
	eng.Step(0)

	dst := make([]float64, eng.cfg.Model.NumParams())
	got := eng.ParamsInto(dst)
	if &got[0] != &dst[0] {
		t.Fatal("ParamsInto must return the caller's buffer")
	}
	for i := range dst {
		if math.Float64bits(dst[i]) != math.Float64bits(eng.x[i]) {
			t.Fatalf("ParamsInto[%d] = %v, want iterate value %v", i, dst[i], eng.x[i])
		}
	}

	// Mutating the filled buffer must not reach the engine.
	before := eng.x.Clone()
	for i := range dst {
		dst[i] = 1e9
	}
	for i := range before {
		if math.Float64bits(eng.x[i]) != math.Float64bits(before[i]) {
			t.Fatalf("mutating ParamsInto buffer changed engine iterate at %d", i)
		}
	}

	// Stepping the engine must not move an earlier snapshot: the filled
	// buffer must not alias the recycled scratch either.
	snap := eng.ParamsInto(make([]float64, eng.cfg.Model.NumParams()))
	want := snap.Clone()
	for r := 1; r <= 3; r++ {
		eng.Step(r)
	}
	for i := range want {
		if math.Float64bits(snap[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Step mutated an earlier ParamsInto snapshot at %d", i)
		}
	}

	// Wrong-size buffers panic like the linalg kernels do.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ParamsInto with short dst must panic")
			}
		}()
		eng.ParamsInto(make([]float64, 1))
	}()
}

// TestParamsSnapshotSafeDuringSteps is the race-gated half of the Params
// regression: a snapshot taken before a burst of training steps must be
// readable while the training goroutine runs. With the old live-vector
// Params the reads below race with Step's buffer rotation and the race
// detector fails the test.
func TestParamsSnapshotSafeDuringSteps(t *testing.T) {
	eng := newTestEngine(t, SendChanged)
	snap := eng.Params()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 50; r++ {
			eng.Step(r)
		}
	}()
	var sum float64
	for i := 0; i < 50; i++ {
		for _, v := range snap {
			sum += v
		}
	}
	<-done
	if math.IsNaN(sum) {
		t.Fatal("snapshot contained NaN")
	}
}

// TestBuildUpdateBaselineLengthGuard covers the SendAll baseline refresh:
// a sent-baseline whose length disagrees with the iterate must be an
// explicit error, not a silent partial copy that desynchronizes every
// future selective diff.
func TestBuildUpdateBaselineLengthGuard(t *testing.T) {
	eng := newTestEngine(t, SendAll)
	eng.lastSent = eng.lastSent[:len(eng.lastSent)-1]
	if _, err := eng.BuildUpdate(0); err == nil {
		t.Fatal("BuildUpdate accepted a sent-baseline shorter than the iterate")
	}

	eng = newTestEngine(t, SendSelected)
	eng.lastSent = append(eng.lastSent, 0)
	if _, err := eng.BuildUpdate(0); err == nil {
		t.Fatal("BuildUpdate accepted a sent-baseline longer than the iterate")
	}
}

// TestFloat32WireBaselineMatchesReceiver regression-tests the float32
// staleness bug: with Float32Wire on, markSent must record the
// float32-rounded values the receiver actually reconstructs. Recording
// full-precision values leaves a permanent sub-rounding gap between the
// sender's baseline and the receiver's view — one the selective diff can
// never observe, so it is never repaired.
func TestFloat32WireBaselineMatchesReceiver(t *testing.T) {
	_, parts := smallPartitions(t, 3, 30, 1)
	g := graph.Complete(3)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	eng, err := NewEngine(EngineConfig{
		ID:          0,
		Model:       m,
		Data:        parts[0],
		Alpha:       0.05,
		WRow:        w.Row(0),
		Neighbors:   g.Neighbors(0),
		Policy:      SendChanged,
		Float32Wire: true,
		Init:        m.InitParams(7),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The receiver starts from the shared init and applies every decoded
	// lossy frame, exactly as a neighbor engine would.
	receiver := m.InitParams(7)
	for round := 0; round < 5; round++ {
		eng.Step(round)
		u, err := eng.BuildUpdate(round + 1)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := codec.EncodeLossyTo(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		got := &codec.Update{}
		if err := codec.DecodeInto(got, frame); err != nil {
			t.Fatal(err)
		}
		if err := codec.Apply(receiver, got); err != nil {
			t.Fatal(err)
		}
	}

	// The sender's baseline must be bitwise what the receiver holds.
	for i := range receiver {
		if math.Float64bits(receiver[i]) != math.Float64bits(eng.lastSent[i]) {
			t.Fatalf("param %d: receiver holds %v, sender baseline says %v",
				i, receiver[i], eng.lastSent[i])
		}
	}

	// With threshold 0 the sub-rounding residual |x − float32(x)| keeps
	// those parameters selected, but retransmission must be idempotent: an
	// idle engine's next frame cannot move the receiver at all.
	u, err := eng.BuildUpdate(6)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := codec.EncodeLossyTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got := &codec.Update{}
	if err := codec.DecodeInto(got, frame); err != nil {
		t.Fatal(err)
	}
	before := receiver.Clone()
	if err := codec.Apply(receiver, got); err != nil {
		t.Fatal(err)
	}
	for i := range receiver {
		if math.Float64bits(receiver[i]) != math.Float64bits(before[i]) {
			t.Fatalf("idle retransmission moved receiver param %d: %v -> %v", i, before[i], receiver[i])
		}
	}
}

// TestReconfigureKeepsHotPathState checks that an epoch switch leaves the
// preallocated hot-path state coherent: the sent baseline keeps the model
// dimensionality and both BuildUpdate and Step keep working against the
// new topology.
func TestReconfigureKeepsHotPathState(t *testing.T) {
	eng := newTestEngine(t, SendSelected)
	for r := 0; r < 3; r++ {
		eng.Step(r)
		if _, err := eng.BuildUpdate(r); err != nil {
			t.Fatal(err)
		}
	}

	// Swap neighbor 2 for a new neighbor 3, whose edge waits for a full
	// exchange.
	if err := eng.Reconfigure(1, []float64{0.4, 0.3, 0, 0.3}, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(eng.lastSent), eng.cfg.Model.NumParams(); got != want {
		t.Fatalf("sent baseline has %d params after reconfigure, want %d", got, want)
	}
	u, err := eng.BuildUpdate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != eng.cfg.Model.NumParams() {
		t.Fatalf("post-reconfigure send carries %d params, want full vector %d",
			len(u.Indices), eng.cfg.Model.NumParams())
	}
	eng.Step(4)
}

// TestEngineRoundAllocFree is the tier-1 alloc budget for the per-round
// hot path: once warm, Step + BuildUpdate must not allocate at all, and
// neither may the full send a reconnect forces nor the per-round snapshot
// a serving feed takes. The last case turns on every per-round knob:
// periodic refresh and restart, a mini-batch gradient, a float32 wire.
func TestEngineRoundAllocFree(t *testing.T) {
	knobs := func(c *EngineConfig) {
		c.RefreshEvery, c.RestartEvery, c.BatchSize, c.Float32Wire = 3, 4, 10, true
	}
	cases := []struct {
		name   string
		policy SendPolicy
		tune   []func(*EngineConfig)
	}{
		{"snap", SendSelected, nil},
		{"snap-0", SendChanged, nil},
		{"sno", SendAll, nil},
		{"snap-refresh-restart-batch-f32", SendSelected, []func(*EngineConfig){knobs}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := newTestEngine(t, tc.policy, tc.tune...)
			snapshot := linalg.NewVector(eng.cfg.Model.NumParams())
			round := 0
			iterate := func() {
				eng.Step(round)
				if round%5 == 0 {
					eng.RequestFullSend() // as after a neighbor reconnects
				}
				if _, err := eng.BuildUpdate(round); err != nil {
					t.Fatal(err)
				}
				eng.ParamsInto(snapshot)
				round++
			}
			for i := 0; i < 5; i++ {
				iterate() // warm the scratch buffers
			}
			if avg := testing.AllocsPerRun(100, iterate); avg != 0 {
				t.Errorf("steady-state round allocated %v times per run, want 0", avg)
			}
		})
	}
}
