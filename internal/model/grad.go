package model

import (
	"sync"
	"sync/atomic"

	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
)

// GradShardSize is the fixed shard width of the sharded gradient path.
// The shard decomposition depends only on the batch length — never on
// the worker count — which is what makes the parallel gradient
// bitwise-identical to the serial one. It is also the parallelism
// threshold: batches of at most one shard always run serially.
const GradShardSize = 256

// GradScratch holds the per-shard buffers GradientLossTo needs and one
// model workspace per worker. One scratch belongs to one gradient
// consumer (e.g. one engine) and is reused across calls; the zero value
// is ready to use.
type GradScratch struct {
	shards []gradShard
	work   []Scratch
}

// gradShard is one shard's partial gradient sum and partial loss sum.
type gradShard struct {
	partial linalg.Vector
	loss    float64
}

func (sc *GradScratch) ensure(shards, workers, p, floats, ints int) {
	for len(sc.shards) < shards {
		sc.shards = append(sc.shards, gradShard{})
	}
	for k := range sc.shards[:shards] {
		sh := &sc.shards[k]
		if len(sh.partial) != p {
			sh.partial = linalg.NewVector(p)
		}
	}
	for len(sc.work) < workers {
		sc.work = append(sc.work, Scratch{})
	}
	for w := range sc.work[:workers] {
		sc.work[w].ensure(floats, ints)
	}
}

// accumParallel computes every shard partial using a pool of worker
// goroutines pulling shard indices from a shared counter. Which worker
// computes which shard is scheduling-dependent, but each shard lands in
// its own buffer, so the subsequent reduction is order-independent.
func (sc *GradScratch) accumParallel(m Model, params linalg.Vector, batch []dataset.Sample, shards, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(work *Scratch) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= shards {
					return
				}
				sc.accumShard(m, params, batch, k, work)
			}
		}(&sc.work[w])
	}
	wg.Wait()
}

func (sc *GradScratch) accumShard(m Model, params linalg.Vector, batch []dataset.Sample, k int, work *Scratch) {
	lo := k * GradShardSize
	hi := lo + GradShardSize
	if hi > len(batch) {
		hi = len(batch)
	}
	sh := &sc.shards[k]
	sh.partial.Fill(0)
	sh.loss = m.AccumGrad(sh.partial, params, batch[lo:hi], work)
}

// GradientTo computes ∇Loss(params) on batch into dst and returns dst:
// GradientLossTo for callers that have no use for the loss.
func GradientTo(m Model, dst, params linalg.Vector, batch []dataset.Sample, sc *GradScratch, workers int) linalg.Vector {
	GradientLossTo(m, dst, params, batch, sc, workers)
	return dst
}

// GradientLossTo computes ∇Loss(params) on batch into dst and returns
// Loss(params, batch), which the gradient's forward pass yields as a
// by-product.
//
// The batch is cut into fixed-width shards (GradShardSize samples), each shard's unscaled term
// sums (gradient and loss) are accumulated into dedicated scratch, and
// the shard partials are combined by a fixed-shape pairwise tree
// reduction before the 1/m scaling is applied. Because both the shard
// boundaries and the reduction tree depend only on len(batch), the
// result is bitwise-identical whether the shards are computed serially
// or by any number of workers — workers (≤1 = serial) only sets the
// parallelism cap. Single-shard batches always run serially and
// allocation-free, and their loss equals Model.Loss bit for bit; over
// several shards the tree sums the same terms in a different order than
// Loss's single left-to-right pass, so the two agree to rounding only.
func GradientLossTo(m Model, dst, params linalg.Vector, batch []dataset.Sample, sc *GradScratch, workers int) float64 {
	m.RegGradTo(dst, params)
	reg := m.Loss(params, nil)
	if len(batch) == 0 {
		return reg
	}
	shards := (len(batch) + GradShardSize - 1) / GradShardSize
	if sc == nil {
		sc = &GradScratch{}
	}
	workers = max(min(workers, shards), 1)
	floats, ints := m.ScratchSize()
	sc.ensure(shards, workers, len(dst), floats, ints)
	if workers == 1 {
		for k := 0; k < shards; k++ {
			sc.accumShard(m, params, batch, k, &sc.work[0])
		}
	} else {
		// Kept out of line so the escaping WaitGroup/counter locals are
		// only heap-allocated when the parallel path actually runs.
		sc.accumParallel(m, params, batch, shards, workers)
	}
	// Fixed-shape pairwise reduction over the shard partials. The combine
	// order is a function of the shard count alone, so worker scheduling
	// cannot perturb float summation order.
	for stride := 1; stride < shards; stride *= 2 {
		for i := 0; i+stride < shards; i += 2 * stride {
			sc.shards[i].partial.AddInPlace(sc.shards[i+stride].partial)
			sc.shards[i].loss += sc.shards[i+stride].loss
		}
	}
	dst.AXPYInPlace(1/float64(len(batch)), sc.shards[0].partial)
	return reg + sc.shards[0].loss/float64(len(batch))
}
