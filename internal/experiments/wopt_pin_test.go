package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// sweepPoint is one (network size, average degree) topology of a sweep.
type sweepPoint struct {
	n   int
	deg float64
}

// topologyPins are FNV-64a over the little-endian Float64bits of the
// row-major entries of optimizedWeightsFor(topologyFor(n, deg, quickOpt())):
// every sweep point Figs. 5, 6 and 8 optimize in quick mode at seed 1, the
// grid the shape tests and `snapsim -fig all -quick` run.
var topologyPins = map[sweepPoint]uint64{
	{20, 3}:  0x3dabd39964ea2350,
	{60, 3}:  0xce053f500b4d9271,
	{60, 2}:  0x66b497751802992b,
	{60, 4}:  0xd67a40b43df442a7,
	{60, 6}:  0x746f9be156f060a1,
	{60, 10}: 0x966b5da2bc54ced4,
	{60, 30}: 0x5fc665164af52fd2,
	{60, 50}: 0x852649f5c4272e01,
}

// TestOptimizedTopologiesPinned holds the weight matrices behind the paper
// figures to the exact bits they had when recorded, so a solver change
// that moves a figure fails here instead of silently in EXPERIMENTS.md.
// It shares weightCache with the figure tests, so after them it costs
// nothing. The golden values are amd64's.
func TestOptimizedTopologiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizing 60-node topologies is heavy")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are amd64's; GOARCH is %s", runtime.GOARCH)
	}
	opt := quickOpt()
	var points []sweepPoint
	for _, n := range scalePoints(opt) {
		points = append(points, sweepPoint{n, 3})
	}
	for _, degs := range [][]float64{sparseDegrees(opt), denseDegrees(opt)} {
		for _, d := range degs {
			points = append(points, sweepPoint{60, d})
		}
	}
	if len(points) != len(topologyPins) {
		t.Fatalf("%d sweep points, %d pins", len(points), len(topologyPins))
	}
	for _, p := range points {
		w, err := optimizedWeightsFor(topologyFor(p.n, p.deg, opt))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, x := range w.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		if got, want := h.Sum64(), topologyPins[p]; got != want {
			t.Errorf("n=%d deg=%g: pin %#x, want %#x", p.n, p.deg, got, want)
		}
	}
}
