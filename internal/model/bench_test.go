package model

import (
	"math/rand"
	"testing"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// BenchmarkSVMGradientPartition measures one node's full-batch SVM
// gradient on its share of a 30 000 × 24 credit corpus split across 20
// servers (~1 500 rows), the per-node compute of a simulated 20-node
// round. Unlike a gradient over rows in corpus order it sees the layout
// Dataset.Partition gives a node's shard.
func BenchmarkSVMGradientPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	corpus := dataset.SyntheticCredit(dataset.CreditConfig{Samples: 30000, Features: 24}, rng)
	parts, err := corpus.Partition(20, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := NewLinearSVM(24)
	w, batch := m.InitParams(3), parts[0].Samples
	dst := linalg.NewVector(len(w))
	var sc GradScratch
	var loss float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss = GradientLossTo(m, dst, w, batch, &sc, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
	benchLoss = loss
}

// benchLoss keeps the compiler from discarding a benchmarked result.
var benchLoss float64

// BenchmarkMLPGradientPartition measures one node's full-batch 784-30-10
// gradient on its share of a 600-image digit corpus split across three
// servers (~200 rows, one gradient shard), the per-node compute of a
// tcp-mlp-k3 round.
func BenchmarkMLPGradientPartition(b *testing.B) {
	benchMLPGradient(b, 0)
}

// BenchmarkMLPGradientMinibatch measures the same node's gradient on an
// eight-row minibatch, TernGrad's per-worker batch in figure 4.
func BenchmarkMLPGradientMinibatch(b *testing.B) {
	benchMLPGradient(b, 8)
}

// benchMLPGradient times the gradient on the first rows rows of a
// tcp-mlp-k3 node's shard (all of it for 0) and reports ns/sample.
func benchMLPGradient(b *testing.B, rows int) {
	rng := rand.New(rand.NewSource(1))
	corpus, _ := dataset.SyntheticDigits(dataset.DigitsConfig{Train: 600, Test: 1, Side: 28}, rng)
	parts, err := corpus.Partition(3, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMLP(28*28, 30, 10)
	p, batch := m.InitParams(3), parts[0].Samples
	if rows > 0 {
		batch = batch[:rows]
	}
	dst := linalg.NewVector(len(p))
	var sc GradScratch
	GradientLossTo(m, dst, p, batch, &sc, 1) // size the scratch
	var loss float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss = GradientLossTo(m, dst, p, batch, &sc, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
	benchLoss = loss
}
