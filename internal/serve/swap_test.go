package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
)

// coherentModel is the torn-read detector: it predicts 1 only when every
// parameter holds the same value. Publishers only ever install uniform
// vectors, so any prediction of 0 means a reader saw a half-swapped
// snapshot.
type coherentModel struct{ signModel }

func (m *coherentModel) PredictInto(p linalg.Vector, _ []float64, _ *model.Scratch) int {
	v := p[0]
	for _, pv := range p {
		if pv != v {
			return 0
		}
	}
	return 1
}

// TestHotSwapNoTornReads hammers the gateway with concurrent predicts
// while a publisher hot-swaps the model as fast as it can. Every served
// prediction must come from a complete, uniform snapshot. Run under
// -race this also proves the swap protocol is data-race free end to end
// (CI runs internal/serve in the race-detector step).
func TestHotSwapNoTornReads(t *testing.T) {
	const (
		dim        = 512
		predictors = 8
		swaps      = 400
	)
	g := newTestGateway(t, Config{
		Model:    &coherentModel{signModel{params: dim}},
		Features: 4,
		Workers:  4,
		MaxBatch: 8,
	})
	feed := g.Feed()
	publishN(feed, 0, 0, dim, 1)

	var (
		stop atomic.Bool
		torn atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(predictors)
	for i := 0; i < predictors; i++ {
		go func() {
			defer wg.Done()
			x := []float64{1, 0, 0, 0}
			for !stop.Load() {
				label, v, err := g.Predict(context.Background(), x)
				if err != nil {
					continue // overload/deadline shedding is fine here
				}
				if label != 1 {
					torn.Add(1)
				}
				if v.Round < 0 || v.Round > swaps {
					torn.Add(1)
				}
			}
		}()
	}

	// Publish uniform vectors with distinct fill values as fast as
	// possible, reusing one source buffer — Publish must copy it.
	src := linalg.NewVector(dim)
	for k := 1; k <= swaps; k++ {
		src.Fill(float64(k))
		feed.Publish(k, k%5, src)
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d predictions saw a torn or out-of-range snapshot", n)
	}
	if round, _, seq, ok := feed.Version(); !ok || round != swaps || seq != swaps+1 {
		t.Fatalf("final version = round %d seq %d ok %v, want round %d seq %d", round, seq, ok, swaps, swaps+1)
	}
}

// TestFeedSnapshotStableWhileHeld pins the refcount protocol: a snapshot
// acquired before later publishes must keep its exact contents until
// released, even though the feed recycles buffers.
func TestFeedSnapshotStableWhileHeld(t *testing.T) {
	f := NewFeed()
	publishN(f, 1, 0, 8, 1)

	held := f.Acquire()
	if held == nil {
		t.Fatal("Acquire returned nil after publish")
	}
	for k := 2; k <= 6; k++ {
		publishN(f, k, 0, 8, float64(k))
	}
	for i, v := range held.Params() {
		if v != 1 {
			t.Fatalf("held snapshot[%d] = %v after later publishes, want 1", i, v)
		}
	}
	if held.Round() != 1 {
		t.Fatalf("held round = %d, want 1", held.Round())
	}
	held.Release()

	cur := f.Acquire()
	if cur.Round() != 6 || cur.Params()[0] != 6 {
		t.Fatalf("current = round %d fill %v, want round 6 fill 6", cur.Round(), cur.Params()[0])
	}
	cur.Release()
}

// TestFeedRecyclesBuffers checks the double-buffering: in steady state
// (publish, no long-held readers) the feed cycles through a bounded set
// of parameter buffers instead of allocating one per publish.
func TestFeedRecyclesBuffers(t *testing.T) {
	f := NewFeed()
	src := linalg.NewVector(64)
	seen := make(map[*float64]bool)
	for k := 0; k < 100; k++ {
		src.Fill(float64(k))
		f.Publish(k, 0, src)
		s := f.Acquire()
		seen[&s.Params()[0]] = true
		s.Release()
	}
	// Current + one in flight: the steady state needs at most 3 distinct
	// buffers (a little slack for the first publishes).
	if len(seen) > 3 {
		t.Fatalf("feed used %d distinct buffers over 100 publishes, want <= 3", len(seen))
	}
}

// TestFeedEmpty covers the unloaded state.
func TestFeedEmpty(t *testing.T) {
	f := NewFeed()
	if f.Acquire() != nil {
		t.Fatal("Acquire on empty feed must return nil")
	}
	if f.Loaded() {
		t.Fatal("empty feed reports loaded")
	}
	if _, _, _, ok := f.Version(); ok {
		t.Fatal("empty feed reports a version")
	}
	var nilSnap *Snapshot
	nilSnap.Release() // must not panic
}
