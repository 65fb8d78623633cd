package codec

import (
	"math/rand"
	"testing"
)

// FuzzDecode hardens the wire parser: arbitrary bytes must never panic,
// and any frame that decodes must re-encode to a frame that decodes to
// the same update.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		u := randomUpdate(rng, 1+rng.Intn(30))
		if frame, _, err := EncodeTo(nil, u); err == nil {
			f.Add(frame)
		}
		if frame, _, err := EncodeLossyTo(nil, u); err == nil {
			f.Add(frame)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A frame with a 24-byte transport trace block still prefixed — what
	// the decoder would see if a transport ever failed to strip the block.
	// It must be rejected (or decoded as garbage-that-validates), never
	// panic on.
	if frame, _, err := EncodeTo(nil, randomUpdate(rng, 12)); err == nil {
		block := make([]byte, 24, 24+len(frame))
		block[0], block[7], block[23] = 0xde, 0xad, 0x07
		f.Add(append(block, frame...))
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		u := &Update{}
		if err := DecodeInto(u, frame); err != nil {
			return // rejection is fine; panics are not
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("Decode returned invalid update: %v", err)
		}
		// Round trip through the full-precision encoder.
		re, _, err := EncodeTo(nil, u)
		if err != nil {
			t.Fatalf("re-encode of decoded update failed: %v", err)
		}
		u2 := &Update{}
		if err := DecodeInto(u2, re); err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if u2.NumParams != u.NumParams || len(u2.Indices) != len(u.Indices) {
			t.Fatal("re-encode round trip changed structure")
		}
	})
}

// FuzzDiffApply checks the end-to-end selective-update path under
// arbitrary numeric inputs.
func FuzzDiffApply(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) == 0 || len(raw) > 256 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := len(raw)
		baseline := make([]float64, n)
		current := make([]float64, n)
		for i := range baseline {
			baseline[i] = rng.NormFloat64()
			current[i] = baseline[i] + float64(int8(raw[i]))/64
		}
		threshold := float64(raw[0]) / 255
		u := &Update{}
		if err := DiffInto(u, 0, 0, baseline, current, threshold); err != nil {
			t.Fatal(err)
		}
		frame, _, err := EncodeTo(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		got := &Update{}
		if err := DecodeInto(got, frame); err != nil {
			t.Fatal(err)
		}
		dst := append([]float64(nil), baseline...)
		if err := Apply(dst, got); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			d := dst[i] - current[i]
			if d < 0 {
				d = -d
			}
			if d > threshold {
				t.Fatalf("residual %v exceeds threshold %v at %d", d, threshold, i)
			}
		}
	})
}
