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
