package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
)

// slowModel is a plain Model (no BatchAccumulator, so the engine calls
// Gradient) whose gradient takes a while and records how many of them
// were in flight at once across every instance sharing the counters.
type slowModel struct {
	params          int
	inFlight, worst *atomic.Int32
}

func (m slowModel) Name() string                                 { return "slow" }
func (m slowModel) NumParams() int                               { return m.params }
func (m slowModel) Loss(linalg.Vector, []dataset.Sample) float64 { return 0 }
func (m slowModel) Predict(linalg.Vector, []float64) int         { return 0 }
func (m slowModel) InitParams(int64) linalg.Vector               { return linalg.NewVector(m.params) }
func (m slowModel) Gradient(linalg.Vector, []dataset.Sample) linalg.Vector {
	n := m.inFlight.Add(1)
	for w := m.worst.Load(); n > w && !m.worst.CompareAndSwap(w, n); w = m.worst.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	m.inFlight.Add(-1)
	return linalg.NewVector(m.params)
}

// TestHeavyGradientSlots: the PeerNodes of one process never compute more
// heavy gradients at once than there are slots, and a light gradient
// never waits for one.
func TestHeavyGradientSlots(t *testing.T) {
	const samples = 64
	data := dataset.SyntheticCredit(dataset.CreditConfig{Samples: samples, Features: 4}, rand.New(rand.NewSource(1)))
	newNode := func(m model.Model) *PeerNode {
		t.Helper()
		pn, err := NewPeerNode(PeerNodeConfig{
			Engine:     EngineConfig{Model: m, Data: data, Alpha: 0.1, WRow: linalg.Vector{1}, Init: m.InitParams(1)},
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pn.Close() })
		return pn
	}

	var inFlight, worst atomic.Int32
	heavy := slowModel{params: heavyGradCost / samples, inFlight: &inFlight, worst: &worst}
	nodes := make([]*PeerNode, cap(heavyGradSlots)+3)
	for i := range nodes {
		nodes[i] = newNode(heavy)
		if !nodes[i].heavyGrad {
			t.Fatalf("%d params × %d samples not classed as heavy", heavy.params, samples)
		}
	}
	var wg sync.WaitGroup
	for _, pn := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				pn.computeGradient(round)
			}
		}()
	}
	wg.Wait()
	if got := int(worst.Load()); got > cap(heavyGradSlots) {
		t.Errorf("%d heavy gradients in flight, %d slots", got, cap(heavyGradSlots))
	}
	if len(heavyGradSlots) != 0 {
		t.Errorf("%d slots still held after every gradient returned", len(heavyGradSlots))
	}

	// With every slot taken, a light gradient still runs.
	light := newNode(slowModel{params: 8, inFlight: new(atomic.Int32), worst: new(atomic.Int32)})
	if light.heavyGrad {
		t.Fatal("8 params × 64 samples classed as heavy")
	}
	for i := 0; i < cap(heavyGradSlots); i++ {
		heavyGradSlots <- struct{}{}
	}
	done := make(chan struct{})
	go func() {
		light.computeGradient(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("light gradient waited for a heavy-gradient slot")
	}
	for i := 0; i < cap(heavyGradSlots); i++ {
		<-heavyGradSlots
	}
}
