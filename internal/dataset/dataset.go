// Package dataset provides the training data SNAP's experiments run on.
//
// The paper evaluates on MNIST (a 10-class 28×28-pixel digit task for the
// MLP testbed experiments) and on the UCI "default of credit card clients"
// data (a 24-feature binary task for the large-scale SVM simulations).
// Neither corpus can be downloaded in this offline reproduction, so the
// package generates synthetic equivalents that preserve what the
// experiments actually exercise: feature dimensionality, sample counts,
// class structure, class imbalance, and enough learnable signal that the
// models' training dynamics (loss curvature, parameter-change statistics)
// resemble the originals. See DESIGN.md §2 for the substitution rationale.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one labeled example: a dense feature vector and an integer
// class label in [0, NumClasses).
type Sample struct {
	X     []float64
	Label int
}

// Dataset is an in-memory collection of samples sharing a feature
// dimensionality and class count.
type Dataset struct {
	Samples    []Sample
	NumFeature int
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Subset returns a Dataset viewing the samples at the given indices: its
// rows are d's rows, shared, not copied.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := &Dataset{
		Samples:    make([]Sample, len(indices)),
		NumFeature: d.NumFeature,
		NumClasses: d.NumClasses,
	}
	for i, idx := range indices {
		out.Samples[i] = d.Samples[idx]
	}
	return out
}

// Batch returns up to size samples starting at a deterministic offset that
// advances with round, wrapping around the dataset. It gives every node a
// reproducible mini-batch schedule without shared state.
func (d *Dataset) Batch(round, size int) []Sample {
	return d.BatchInto(nil, round, size)
}

// BatchInto is Batch into a caller-owned buffer: the mini-batch is
// appended to buf[:0] (buf may be nil), so a warm buffer makes the
// steady-state batch schedule allocation-free. When size covers the
// whole dataset the shared d.Samples slice is returned directly — the
// caller must treat the result as read-only and must not keep it as its
// reuse buffer.
func (d *Dataset) BatchInto(buf []Sample, round, size int) []Sample {
	n := len(d.Samples)
	if n == 0 || size <= 0 {
		return nil
	}
	if size >= n {
		return d.Samples
	}
	start := (round * size) % n
	out := buf[:0]
	for i := 0; i < size; i++ {
		out = append(out, d.Samples[(start+i)%n])
	}
	return out
}

// Partition randomly assigns every sample to one of n partitions
// (emulating the paper's "randomly allocate each training sample to one of
// the servers") and returns the per-partition datasets. Every partition is
// guaranteed at least one sample when n ≤ len(samples). The partitions own
// their rows, as a server owns its shard: see ownedParts.
func (d *Dataset) Partition(n int, rng *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: partition count %d must be positive", n)
	}
	if n > d.Len() {
		return nil, fmt.Errorf("dataset: cannot split %d samples into %d non-empty partitions", d.Len(), n)
	}
	assign := make([]int, d.Len())
	// First n samples (in shuffled order) seed one partition each so none
	// is empty; the rest go to uniformly random partitions.
	perm := rng.Perm(d.Len())
	for i, p := range perm {
		if i < n {
			assign[p] = i
		} else {
			assign[p] = rng.Intn(n)
		}
	}
	buckets := make([][]int, n)
	for idx, part := range assign {
		buckets[part] = append(buckets[part], idx)
	}
	return d.ownedParts(buckets), nil
}

// ownedParts returns the datasets d.Subset(buckets[k]) with every row
// copied into one backing array allocated for the call: part after
// part, each part's rows laid end to end in sample order, each row
// sliced with cap == len so an append to one row cannot overwrite the
// next. A node's gradient then walks its shard front to back instead of
// jumping across the pooled corpus, and a later write to d's rows does
// not reach the parts.
func (d *Dataset) ownedParts(buckets [][]int) []*Dataset {
	total := 0 // every sample is in exactly one bucket
	for _, s := range d.Samples {
		total += len(s.X)
	}
	slab := make([]float64, total)
	out := make([]*Dataset, len(buckets))
	for k, b := range buckets {
		part := d.Subset(b)
		for i := range part.Samples {
			n := copy(slab, part.Samples[i].X)
			part.Samples[i].X, slab = slab[:n:n], slab[n:]
		}
		out[k] = part
	}
	return out
}

// Split divides the dataset into train/test parts with the given train
// fraction, after a deterministic shuffle.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	perm := rng.Perm(d.Len())
	cut := int(trainFrac * float64(d.Len()))
	if cut < 0 {
		cut = 0
	}
	if cut > d.Len() {
		cut = d.Len()
	}
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// CreditConfig parameterizes the synthetic credit-default generator.
type CreditConfig struct {
	Samples  int     // default 30000 (matching the UCI corpus)
	Features int     // default 24
	PosRate  float64 // approximate positive-class rate, default 0.22
	Noise    float64 // logit noise std, default 0.3
}

func (c CreditConfig) withDefaults() CreditConfig {
	if c.Samples <= 0 {
		c.Samples = 30000
	}
	if c.Features < 2 { // at least one informative + the intercept feature
		c.Features = 24
	}
	if c.PosRate <= 0 || c.PosRate >= 1 {
		c.PosRate = 0.22
	}
	if c.Noise <= 0 {
		c.Noise = 0.3
	}
	return c
}

// SyntheticCredit generates a binary classification dataset shaped like the
// UCI "default of credit card clients" data: cfg.Features−1 standardized,
// mildly correlated informative features plus a final constant-1 intercept
// feature; labels come from a fixed logistic ground truth with an
// intercept tuned to cfg.PosRate. Labels are 0 (no default) and 1
// (default).
//
// The explicit intercept feature matters for the paper's setup: the SVM
// has exactly cfg.Features parameters and no separate bias, yet the class
// imbalance means the Bayes boundary does not pass through the origin —
// the constant feature lets a bias-free linear model represent it.
func SyntheticCredit(cfg CreditConfig, rng *rand.Rand) *Dataset {
	cfg = cfg.withDefaults()
	informative := cfg.Features - 1
	// Fixed ground-truth weight vector: alternating-sign, decaying
	// magnitudes so a linear model can recover most of the signal. The
	// vector is rescaled so the logit signal clearly dominates the noise
	// term (otherwise the Bayes accuracy falls to the majority-class rate
	// and accuracy comparisons between schemes become meaningless).
	truth := make([]float64, informative)
	var norm float64
	for j := range truth {
		sign := 1.0
		if j%2 == 1 {
			sign = -1
		}
		truth[j] = sign * 1.5 / (1 + float64(j)/4)
		norm += truth[j] * truth[j]
	}
	norm = math.Sqrt(norm)
	const signalStrength = 4.0
	for j := range truth {
		truth[j] *= signalStrength / norm
	}
	// Calibrate the intercept so the *marginal* positive rate hits
	// cfg.PosRate despite the logit spread: E[σ(μ+sZ)] ≈ σ(μ/√(1+πs²/8))
	// (the probit approximation), so μ = logit(p)·√(1+πs²/8). The
	// per-feature variance is 0.7²+0.3² = 0.58 (see below).
	spread2 := signalStrength*signalStrength*0.58 + cfg.Noise*cfg.Noise
	intercept := logit(cfg.PosRate) * math.Sqrt(1+math.Pi*spread2/8)

	// A shared latent factor induces mild feature correlation, like the
	// bill-amount columns of the real corpus.
	ds := &Dataset{NumFeature: cfg.Features, NumClasses: 2}
	ds.Samples = make([]Sample, cfg.Samples)
	slab := make([]float64, cfg.Samples*cfg.Features)
	for i := range ds.Samples {
		latent := rng.NormFloat64()
		x := slab[i*cfg.Features : (i+1)*cfg.Features : (i+1)*cfg.Features]
		var score float64
		for j := 0; j < informative; j++ {
			x[j] = 0.7*rng.NormFloat64() + 0.3*latent
			score += truth[j] * x[j]
		}
		x[informative] = 1 // intercept feature
		score = score + intercept + cfg.Noise*rng.NormFloat64()
		label := 0
		if sigmoid(score) > rng.Float64() {
			label = 1
		}
		ds.Samples[i] = Sample{X: x, Label: label}
	}
	return ds
}

// DigitsConfig parameterizes the synthetic MNIST-like generator.
type DigitsConfig struct {
	Train int     // default 50000 (matching MNIST's training split as the paper cites it)
	Test  int     // default 10000
	Side  int     // image side length, default 28 (features = Side²)
	Noise float64 // per-pixel noise std, default 0.25
	Shift int     // max prototype translation in pixels, default 2
}

func (c DigitsConfig) withDefaults() DigitsConfig {
	if c.Train <= 0 {
		c.Train = 50000
	}
	if c.Test <= 0 {
		c.Test = 10000
	}
	if c.Side <= 0 {
		c.Side = 28
	}
	if c.Noise <= 0 {
		c.Noise = 0.25
	}
	if c.Shift < 0 {
		c.Shift = 2
	}
	return c
}

// SyntheticDigits generates an MNIST-shaped 10-class image dataset: ten
// smooth random prototypes (sums of Gaussian blobs on a Side×Side canvas),
// each sample a randomly shifted prototype plus pixel noise, clipped to
// [0,1]. A 784-30-10 MLP learns it with dynamics comparable to MNIST.
func SyntheticDigits(cfg DigitsConfig, rng *rand.Rand) (train, test *Dataset) {
	cfg = cfg.withDefaults()
	protos := digitPrototypes(cfg.Side, rng)
	gen := func(n int) *Dataset {
		ds := &Dataset{NumFeature: cfg.Side * cfg.Side, NumClasses: 10}
		ds.Samples = make([]Sample, n)
		f := ds.NumFeature
		slab := make([]float64, n*f)
		for i := range ds.Samples {
			label := rng.Intn(10)
			x := slab[i*f : (i+1)*f : (i+1)*f]
			renderDigit(x, protos[label], cfg, rng)
			ds.Samples[i] = Sample{X: x, Label: label}
		}
		return ds
	}
	return gen(cfg.Train), gen(cfg.Test)
}

// digitPrototypes builds ten distinct smooth prototype images. Blob
// centers are confined to the middle of the canvas and faint ink is
// truncated to exactly zero, so — like MNIST digits — every prototype has
// a hard blank border. Weights fanning in from those always-blank pixels
// receive exactly-zero gradients, the population of "unchanged
// parameters" the paper measures in Fig. 2.
func digitPrototypes(side int, rng *rand.Rand) [][]float64 {
	const inkFloor = 0.04
	protos := make([][]float64, 10)
	for c := range protos {
		img := make([]float64, side*side)
		// 4-6 Gaussian blobs per class, positions drawn once per class.
		blobs := 4 + rng.Intn(3)
		for b := 0; b < blobs; b++ {
			cx := float64(side) * (0.32 + 0.36*rng.Float64())
			cy := float64(side) * (0.32 + 0.36*rng.Float64())
			sigma := float64(side) * (0.045 + 0.035*rng.Float64())
			amp := 0.5 + 0.5*rng.Float64()
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					dx, dy := float64(x)-cx, float64(y)-cy
					img[y*side+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
				}
			}
		}
		clip01(img)
		for i, v := range img {
			if v < inkFloor {
				img[i] = 0
			}
		}
		protos[c] = img
	}
	return protos
}

// renderDigit draws one noisy, shifted instance of a prototype into the
// zeroed row out. Noise is applied only where the prototype has ink:
// background pixels stay exactly 0 across every sample, like MNIST's
// borders. This matters for the paper's Fig. 2 — weights fanning in from
// always-zero pixels receive exactly-zero gradients and are the
// "unchanged parameters" SNAP never retransmits.
func renderDigit(out, proto []float64, cfg DigitsConfig, rng *rand.Rand) {
	const inkThreshold = 0.02
	side := cfg.Side
	dx := rng.Intn(2*cfg.Shift+1) - cfg.Shift
	dy := rng.Intn(2*cfg.Shift+1) - cfg.Shift
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			sx, sy := x-dx, y-dy
			var v float64
			if sx >= 0 && sx < side && sy >= 0 && sy < side {
				v = proto[sy*side+sx]
			}
			if v <= inkThreshold {
				continue // background stays exactly zero
			}
			v += cfg.Noise * rng.NormFloat64()
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			out[y*side+x] = v
		}
	}
}

func clip01(xs []float64) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		} else if v > 1 {
			xs[i] = 1
		}
	}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func logit(p float64) float64 { return math.Log(p / (1 - p)) }

// PartitionNonIID assigns samples to n partitions with label skew: each
// partition draws its class mix from a symmetric Dirichlet distribution
// with concentration alpha. Small alpha (e.g. 0.1) gives nearly
// single-class shards — the heterogeneous edge-data regime that makes
// decentralized mixing genuinely hard; large alpha approaches the IID
// random split. Every partition is guaranteed at least one sample, and
// the partitions own their rows as Partition's do.
func (d *Dataset) PartitionNonIID(n int, alpha float64, rng *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: partition count %d must be positive", n)
	}
	if n > d.Len() {
		return nil, fmt.Errorf("dataset: cannot split %d samples into %d non-empty partitions", d.Len(), n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("dataset: Dirichlet concentration %g must be positive", alpha)
	}
	classes := d.NumClasses
	if classes <= 0 {
		classes = 1
	}
	// Per-class partition preference vectors p[c][k] ~ Dirichlet(alpha).
	prefs := make([][]float64, classes)
	for c := range prefs {
		prefs[c] = dirichlet(n, alpha, rng)
	}
	buckets := make([][]int, n)
	for idx, s := range d.Samples {
		c := s.Label
		if c < 0 || c >= classes {
			c = 0
		}
		k := samplePartition(prefs[c], rng)
		buckets[k] = append(buckets[k], idx)
	}
	// Repair empty partitions by stealing from the largest.
	for k := range buckets {
		for len(buckets[k]) == 0 {
			largest := 0
			for j := range buckets {
				if len(buckets[j]) > len(buckets[largest]) {
					largest = j
				}
			}
			if len(buckets[largest]) < 2 {
				return nil, fmt.Errorf("dataset: cannot repair empty partition %d", k)
			}
			last := len(buckets[largest]) - 1
			buckets[k] = append(buckets[k], buckets[largest][last])
			buckets[largest] = buckets[largest][:last]
		}
	}
	return d.ownedParts(buckets), nil
}

// dirichlet draws one symmetric Dirichlet(alpha) sample of dimension n via
// normalized Gamma(alpha, 1) variates (Marsaglia-Tsang for alpha ≥ 1,
// boosted for alpha < 1).
func dirichlet(n int, alpha float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		out[i] = gammaSample(alpha, rng)
		sum += out[i]
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaSample draws Gamma(shape, 1) by Marsaglia & Tsang's method.
func gammaSample(shape float64, rng *rand.Rand) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// samplePartition draws an index from the categorical distribution p.
func samplePartition(p []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for k, w := range p {
		acc += w
		if u < acc {
			return k
		}
	}
	return len(p) - 1
}
