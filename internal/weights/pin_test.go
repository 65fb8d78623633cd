package weights

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/snapml/snap/internal/graph"
)

// pin is the exact fingerprint of one optimizer Result: FNV-64a over the
// little-endian Float64bits of W's row-major entries, and the bits of Value.
type pin struct{ w, value uint64 }

func pinOf(r *Result) pin {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range r.W.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return pin{h.Sum64(), math.Float64bits(r.Value)}
}

// optimizePins are Optimize(g, obj, Options{}) per graph and objective.
var optimizePins = map[string][4]pin{
	// Objectives in order: min-lambda-bar-max, max-lambda-min, min-slem,
	// joint-spectral.
	"ring12":   {{0x5430fffc607d93ed, 0x3febb70751e76a7c}, {0x26e77e15dbd6ac65, 0x3ff0000000000000}, {0xe194ca04f6a48c8d, 0x3febfc89bebd3833}, {0x5430fffc607d93ed, 0x3febb70751e76a7c}},
	"K6":       {{0x1a700782098c5c25, 0xbfc991bcbc9544eb}, {0x32d4b8e07e820085, 0x3ff0000000000000}, {0x29156760d8fb6375, 0x3fb28bd8889f5904}, {0x1a700782098c5c25, 0xbfc991bcbc9544eb}},
	"star6":    {{0x42ec37b76f0615fd, 0x3fe999ed78247279}, {0x32d4b8e07e820085, 0x3ff0000000000000}, {0x42ec37b76f0615fd, 0x3fe999ed78247279}, {0x42ec37b76f0615fd, 0x3fe999ed78247279}},
	"random20": {{0x2d3e0c96f8b41ed6, 0x3fec173d43d6c547}, {0x88b6ff78c563c1e5, 0x3ff0000000000000}, {0x2d3e0c96f8b41ed6, 0x3fec173d43d6c547}, {0x7732322c6f711da2, 0x3fec5c950d25057c}},
	"random25": {{0x546a713e8876b0d8, 0x3feccb39eb4fed5e}, {0x9518265c31b31cb8, 0x3ff0000000000000}, {0x546a713e8876b0d8, 0x3feccb39eb4fed5e}, {0x0d343137a975bd85, 0x3fed38518759c3dd}},
	"random30": {{0xa595143bc39e1f88, 0x3fee5161224315ab}, {0x14c0d0616f61cb05, 0x3ff0000000000000}, {0xa595143bc39e1f88, 0x3fee5161224315ab}, {0x2d42abc6c52b7869, 0x3fee766456fa385f}},
}

// bestPins are OptimizeBest(g, BoundParams{Alpha: 0.1}, opts) per graph
// under the two production Options: the zero value (Cluster, the
// coordinator) and {Iterations: 300, Step: 3} (internal/experiments).
// ring12 is left out: its Metropolis bound is negative at α = 0.1, which
// TestOptimizeBestNeverSelectsGaplessMatrix covers.
var bestPins = map[string][2]pin{
	"K6":       {{0x1a700782098c5c25, 0xbfc991bcbc9544eb}, {0x1a700782098c5c25, 0xbfc991bcbc9544eb}},
	"star6":    {{0x42ec37b76f0615fd, 0x3fe999ed78247279}, {0x42ec37b76f0615fd, 0x3fe999ed78247279}},
	"random20": {{0x7732322c6f711da2, 0x3fec5c950d25057c}, {0x738a407baab4ab6b, 0x3fec73da1ebd55c7}},
	"random25": {{0x0d343137a975bd85, 0x3fed38518759c3dd}, {0x31cab8c993ca57da, 0x3fed59e752f35f15}},
	"random30": {{0x2d42abc6c52b7869, 0x3fee766456fa385f}, {0x3ac2ae31d47c165d, 0x3fee7ce87846aaa6}},
}

// TestOptimizerPinned holds Optimize and OptimizeBest to the exact bits
// they produce, so a restructuring of the solver that claims to leave the
// numerics alone must prove it. The golden values are amd64's; other
// architectures may fuse multiply-adds and round differently.
func TestOptimizerPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are amd64's; GOARCH is %s", runtime.GOARCH)
	}
	graphs := map[string]*graph.Graph{
		"ring12":   graph.Ring(12),
		"K6":       graph.Complete(6),
		"star6":    graph.Star(6),
		"random20": graph.RandomConnected(20, 3, rand.New(rand.NewSource(13))),
		"random25": graph.RandomConnected(25, 3, rand.New(rand.NewSource(21))),
		"random30": graph.RandomConnected(30, 3, rand.New(rand.NewSource(7))),
	}
	objectives := []Objective{MinimizeLambdaBarMax, MaximizeLambdaMin, MinimizeSLEM, JointSpectral}
	production := []Options{{}, {Iterations: 300, Step: 3}}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, obj := range objectives {
				r, err := Optimize(g, obj, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := pinOf(r), optimizePins[name][i]; got != want {
					t.Errorf("Optimize %v: pin %#x, want %#x", obj, got, want)
				}
			}
			want, ok := bestPins[name]
			if !ok {
				return
			}
			for i, opts := range production {
				r, err := OptimizeBest(g, BoundParams{Alpha: 0.1}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := pinOf(r); got != want[i] {
					t.Errorf("OptimizeBest %+v: pin %#x, want %#x", opts, got, want[i])
				}
			}
		})
	}
}
