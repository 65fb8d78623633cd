// Package baseline implements the schemes the paper compares SNAP against:
//
//   - Centralized: plain gradient descent on the pooled data — the
//     accuracy yardstick ("the baseline to evaluate the accuracy of each
//     scheme").
//
//   - PS: the parameter-server scheme — a randomly selected edge server
//     acts as the server; every other server ships its full local
//     gradient to it along the least-hop path each iteration and receives
//     the full updated parameters back, with cost charged hops × bytes.
//
//   - TernGrad: the state-of-the-art communication-reduction baseline —
//     the PS scheme with worker→server gradients ternarized to
//     {−s, 0, +s} and packed 2 bits per coordinate (Wen et al., NIPS'17).
//     The stochastic quantization preserves the gradient in expectation
//     but adds variance, which slows convergence and costs accuracy —
//     the paper's central criticism of it.
//
// All three keep one iterate every node shares and run through one
// training loop (harness.go) that reports the same core.Result as the
// SNAP cluster runs, so the experiment harness can compare them directly.
// The decentralized comparisons (SNAP-0, SNO and classic DGD) run on
// core's own round instead.
package baseline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
)

// frameHeaderBytes matches codec.HeaderBytes so PS/TernGrad frames are
// accounted consistently with SNAP frames.
const frameHeaderBytes = 13

// CentralizedConfig configures the pooled-data baseline.
type CentralizedConfig struct {
	Model         model.Model
	Partitions    []*dataset.Dataset // pooled for training; kept split to evaluate Σ f_i
	Test          *dataset.Dataset
	Alpha         float64
	MaxIterations int
	Convergence   metrics.ConvergenceDetector
	Seed          int64
}

// RunCentralized trains on the union of all partitions with plain gradient
// descent. It incurs no communication cost by definition (the paper uses
// it purely as the accuracy/convergence yardstick).
func RunCentralized(cfg CentralizedConfig) (*core.Result, error) {
	p := problem{
		scheme: "centralized", model: cfg.Model, partitions: cfg.Partitions, test: cfg.Test,
		alpha: cfg.Alpha, maxIterations: cfg.MaxIterations, convergence: cfg.Convergence,
	}
	if err := p.check(false); err != nil {
		return nil, err
	}
	var pooled []dataset.Sample
	for _, part := range cfg.Partitions {
		pooled = append(pooled, part.Samples...)
	}
	x := cfg.Model.InitParams(cfg.Seed)
	return p.run(x, func(int) error {
		g := cfg.Model.Gradient(x, pooled)
		x.AXPYInPlace(-cfg.Alpha, g)
		return nil
	})
}

// PSConfig configures the parameter-server and TernGrad baselines.
type PSConfig struct {
	// Topology is the physical network; gradient/parameter traffic is
	// charged along least-hop paths over it.
	Topology   *graph.Graph
	Model      model.Model
	Partitions []*dataset.Dataset
	Test       *dataset.Dataset
	// Alpha is the server's gradient-descent step on the averaged
	// gradient.
	Alpha         float64
	MaxIterations int
	Convergence   metrics.ConvergenceDetector
	// Seed drives the initial parameters, the random server selection and
	// (for TernGrad) the stochastic ternarization.
	Seed int64
	// Ternary enables TernGrad's 2-bit worker→server gradient encoding.
	Ternary bool
	// BatchSize limits each worker's per-round gradient batch (0 = full
	// local data). TernGrad is defined on minibatch SGD, and its
	// characteristic slowdown/accuracy loss only appears in that regime:
	// with full-batch gradients the quantization noise scales with
	// max|∇f| and vanishes as training converges.
	BatchSize int
	// EvalEvery computes test accuracy every this many rounds (default 1).
	EvalEvery int
}

// RunPS executes the parameter-server scheme (or TernGrad when
// cfg.Ternary): each round every worker sends its local gradient to the
// randomly chosen server along least-hop paths; the server averages,
// steps, and pushes the full parameters back the same way.
func RunPS(cfg PSConfig) (*core.Result, error) {
	p := problem{
		scheme: "ps", topology: cfg.Topology, model: cfg.Model, partitions: cfg.Partitions, test: cfg.Test,
		alpha: cfg.Alpha, maxIterations: cfg.MaxIterations, evalEvery: cfg.EvalEvery, convergence: cfg.Convergence,
	}
	encode := encodeDense
	if cfg.Ternary {
		p.scheme, encode = "terngrad", encodeTernary
	}
	if err := p.check(true); err != nil {
		return nil, err
	}
	n := cfg.Topology.N()
	rng := rand.New(rand.NewSource(cfg.Seed))
	server := rng.Intn(n)
	dim := cfg.Model.NumParams()
	x := cfg.Model.InitParams(cfg.Seed)

	return p.run(x, func(round int) error {
		// Workers compute local gradients at the shared parameters and
		// ship them to the server.
		sum := linalg.NewVector(dim)
		for i := 0; i < n; i++ {
			batch := cfg.Partitions[i].Samples
			if cfg.BatchSize > 0 {
				batch = cfg.Partitions[i].Batch(round, cfg.BatchSize)
			}
			g := cfg.Model.Gradient(x, batch)
			if cfg.Ternary {
				g = ternarize(g, rng)
			}
			if i == server {
				sum.AddInPlace(g) // local, no network traffic
				continue
			}
			frame := encode(g)
			if err := p.net.Unicast(i, server, frame); err != nil {
				return fmt.Errorf("baseline: worker %d: %w", i, err)
			}
			got, err := decodeGradient(frame, dim)
			if err != nil {
				return fmt.Errorf("baseline: decoding worker %d frame: %w", i, err)
			}
			sum.AddInPlace(got)
		}
		// Server averages and steps.
		x.AXPYInPlace(-cfg.Alpha/float64(n), sum)

		// Server pushes the full updated parameters back.
		paramFrame := encodeDense(x)
		for i := 0; i < n; i++ {
			if i == server {
				continue
			}
			if err := p.net.Unicast(server, i, paramFrame); err != nil {
				return fmt.Errorf("baseline: push to worker %d: %w", i, err)
			}
		}
		return nil
	})
}

// ternarize applies TernGrad's stochastic quantization: each coordinate
// becomes s·sign(g_j) with probability |g_j|/s (s = max|g|), else 0. The
// result is unbiased: E[ternarize(g)] = g.
func ternarize(g linalg.Vector, rng *rand.Rand) linalg.Vector {
	s := g.NormInf()
	out := linalg.NewVector(len(g))
	if s == 0 {
		return out
	}
	for j, v := range g {
		if math.Abs(v)/s > rng.Float64() {
			if v > 0 {
				out[j] = s
			} else {
				out[j] = -s
			}
		}
	}
	return out
}

// encodeDense packs a float64 vector: header + 8 bytes per coordinate.
func encodeDense(v linalg.Vector) []byte {
	buf := make([]byte, 0, frameHeaderBytes+8*len(v))
	buf = append(buf, 0) // format tag: dense
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	buf = append(buf, make([]byte, 8)...) // reserved (sender/round in real deployments)
	for _, x := range v {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// encodeTernary packs a ternarized vector as TernGrad does: an 8-byte
// scale plus 2 bits per coordinate (00 = 0, 01 = +s, 10 = −s).
func encodeTernary(v linalg.Vector) []byte {
	s := v.NormInf()
	buf := make([]byte, 0, frameHeaderBytes+8+(2*len(v)+7)/8)
	buf = append(buf, 1) // format tag: ternary
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	buf = append(buf, make([]byte, 8)...) // reserved
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s))
	packed := make([]byte, (2*len(v)+7)/8)
	for j, x := range v {
		var code byte
		switch {
		case x > 0:
			code = 1
		case x < 0:
			code = 2
		}
		packed[j/4] |= code << uint(2*(j%4))
	}
	return append(buf, packed...)
}

// decodeGradient parses a frame produced by encodeDense or encodeTernary.
func decodeGradient(frame []byte, wantLen int) (linalg.Vector, error) {
	if len(frame) < frameHeaderBytes {
		return nil, fmt.Errorf("baseline: frame too short (%d bytes)", len(frame))
	}
	n := int(binary.BigEndian.Uint32(frame[1:5]))
	if n != wantLen {
		return nil, fmt.Errorf("baseline: frame carries %d params, want %d", n, wantLen)
	}
	body := frame[frameHeaderBytes:]
	switch frame[0] {
	case 0:
		if len(body) != 8*n {
			return nil, fmt.Errorf("baseline: dense body is %d bytes, want %d", len(body), 8*n)
		}
		out := linalg.NewVector(n)
		for j := range out {
			out[j] = math.Float64frombits(binary.BigEndian.Uint64(body[8*j : 8*j+8]))
		}
		return out, nil
	case 1:
		want := 8 + (2*n+7)/8
		if len(body) != want {
			return nil, fmt.Errorf("baseline: ternary body is %d bytes, want %d", len(body), want)
		}
		s := math.Float64frombits(binary.BigEndian.Uint64(body[:8]))
		packed := body[8:]
		out := linalg.NewVector(n)
		for j := 0; j < n; j++ {
			code := (packed[j/4] >> uint(2*(j%4))) & 3
			switch code {
			case 1:
				out[j] = s
			case 2:
				out[j] = -s
			case 3:
				return nil, fmt.Errorf("baseline: invalid ternary code at %d", j)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("baseline: unknown frame tag %d", frame[0])
	}
}
