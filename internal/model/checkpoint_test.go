package model

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/snapml/snap/internal/linalg"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := linalg.NewVector(257)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(params, 0) {
		t.Error("checkpoint round trip lost data")
	}
}

func TestCheckpointEmptyVector(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, linalg.Vector{}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty checkpoint loaded %d params", len(got))
	}
}

func TestCheckpointSpecialValues(t *testing.T) {
	params := linalg.Vector{0, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64}
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if math.Float64bits(got[i]) != math.Float64bits(params[i]) {
			t.Errorf("param %d: bits changed", i)
		}
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	params := linalg.Vector{1, 2, 3}
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"badMagic", func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c }},
		{"badVersion", func(b []byte) []byte { c := append([]byte(nil), b...); c[5] = 99; return c }},
		{"flippedPayloadBit", func(b []byte) []byte { c := append([]byte(nil), b...); c[20] ^= 1; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadParams(bytes.NewReader(tc.mutate(raw))); err == nil {
				t.Error("corrupted checkpoint accepted")
			}
		})
	}
}

// TestCheckpointRefusesVersion1: a version 1 stream, intact in every
// other respect, is refused with the error that names the layout change.
func TestCheckpointRefusesVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, linalg.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	binary.BigEndian.PutUint16(v1[4:6], 1)
	_, err := LoadParams(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "input-major parameter layout") || !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("version 1 checkpoint: err = %v, want the layout-change refusal", err)
	}
}

func TestCheckpointRejectsHugeDim(t *testing.T) {
	// Forged header claiming an absurd dimension must not allocate.
	forged := []byte("SNAP")
	forged = append(forged, 0, checkpointVersion)                           // current version
	forged = append(forged, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF) // dim = 2^64-1
	if _, err := LoadParams(bytes.NewReader(forged)); err == nil {
		t.Error("absurd dimension accepted")
	}
}

// hugeDimHeader is a 14-byte checkpoint header that claims the largest
// accepted dimension (2 GiB of float64s) and is followed by no payload.
func hugeDimHeader() []byte {
	h := append([]byte("SNAP"), 0, checkpointVersion)
	return binary.BigEndian.AppendUint64(h, 1<<28)
}

// allocDuring returns the bytes the process allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointHugeDimAllocBounded: a header within the dimension limit
// but with nothing behind it is refused without allocating for the
// claimed dimension, since the header arrives from untrusted peers.
func TestCheckpointHugeDimAllocBounded(t *testing.T) {
	var err error
	alloc := allocDuring(func() { _, err = LoadParams(bytes.NewReader(hugeDimHeader())) })
	if err == nil {
		t.Fatal("checkpoint with a missing payload accepted")
	}
	if alloc >= 1<<20 {
		t.Fatalf("14-byte checkpoint allocated %d bytes, want < 1 MiB", alloc)
	}
}

// FuzzLoadParams: LoadParams never panics, allocates in proportion to the
// bytes it is given, and an accepted input re-encodes through SaveParams
// to exactly the bytes it consumed.
func FuzzLoadParams(f *testing.F) {
	seq := linalg.NewVector(24)
	for i := range seq {
		seq[i] = float64(i) - 11.5
	}
	var frames [][]byte
	for _, p := range []linalg.Vector{{}, {1.5}, seq, {math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}} {
		var buf bytes.Buffer
		if err := SaveParams(&buf, p); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
		f.Add(buf.Bytes())
	}
	full := frames[2]
	f.Add(full[:len(full)-7])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)
	f.Add(hugeDimHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var params linalg.Vector
		var err error
		alloc := allocDuring(func() { params, err = LoadParams(r) })
		if limit := 1<<20 + 8*uint64(len(data)); alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveParams(&out, params); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", len(consumed))
		}
	})
}

// Property: round trip is exact for arbitrary vectors.
func TestCheckpointProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var buf bytes.Buffer
		if err := SaveParams(&buf, linalg.Vector(xs)); err != nil {
			return false
		}
		got, err := LoadParams(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointTrainedModel persists a converged model and verifies the
// reloaded parameters predict identically.
func TestCheckpointTrainedModel(t *testing.T) {
	m := NewLinearSVM(10)
	batch := creditBatch(100, 30)
	w := m.InitParams(31)
	for step := 0; step < 100; step++ {
		w.AXPYInPlace(-0.1, gradient(m, w, batch))
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range batch {
		if predict(m, w, s.X) != predict(m, got, s.X) {
			t.Fatal("reloaded model predicts differently")
		}
	}
}
