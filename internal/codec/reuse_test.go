package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// TestEncodeToMatchesEncode pins the encoders writing into a reused,
// warm buffer to the same encoders on a nil one byte-for-byte, across
// formats and withheld fractions.
func TestEncodeToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	for trial := 0; trial < 50; trial++ {
		u := randomUpdate(rng, 1+rng.Intn(64))

		want, wantF, err := EncodeTo(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		var gotF Format
		buf, gotF, err = EncodeTo(buf, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotF != wantF || !bytes.Equal(buf, want) {
			t.Fatalf("trial %d: EncodeTo on a reused buffer (format %v) differs from a fresh one (format %v)", trial, gotF, wantF)
		}

		wantL, wantLF, err := EncodeLossyTo(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		buf, gotF, err = EncodeLossyTo(buf, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotF != wantLF || !bytes.Equal(buf, wantL) {
			t.Fatalf("trial %d: EncodeLossyTo on a reused buffer differs from a fresh one", trial)
		}
	}

	// Byte-exact goldens, one per wire format: the frame layout is the
	// contract between nodes, so any change to it must show up here.
	// Header: format | sender | epoch | N; then the format's payload.
	most := &Update{Sender: 2, Epoch: 7, NumParams: 4, Indices: []int{0, 1, 3}, Values: []float64{1.5, -2, 0.25}}
	few := &Update{Sender: 2, Epoch: 7, NumParams: 4, Indices: []int{1}, Values: []float64{-2}}
	for _, tc := range []struct {
		u      *Update
		lossy  bool
		format Format
		hex    string
	}{
		// m=1 withheld, unchanged list [2], then three float64 values.
		{most, false, FormatUnchangedList, "01" + "00000002" + "00000007" + "00000004" +
			"00000001" + "00000002" + "3ff8000000000000" + "c000000000000000" + "3fd0000000000000"},
		// (index, float64) pairs.
		{few, false, FormatIndexValue, "02" + "00000002" + "00000007" + "00000004" +
			"00000001" + "c000000000000000"},
		{most, true, FormatUnchangedList32, "03" + "00000002" + "00000007" + "00000004" +
			"00000001" + "00000002" + "3fc00000" + "c0000000" + "3e800000"},
		{few, true, FormatIndexValue32, "04" + "00000002" + "00000007" + "00000004" +
			"00000001" + "c0000000"},
	} {
		var f Format
		var err error
		if tc.lossy {
			buf, f, err = EncodeLossyTo(buf, tc.u)
		} else {
			buf, f, err = EncodeTo(buf, tc.u)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf); f != tc.format || got != tc.hex {
			t.Errorf("%v frame = %s, want %v frame %s", f, got, tc.format, tc.hex)
		}
	}
}

// TestDecodeIntoMatchesDecode round-trips random updates through a
// single reused Update across all four wire formats.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var u Update
	for trial := 0; trial < 50; trial++ {
		orig := randomUpdate(rng, 1+rng.Intn(64))
		for _, lossy := range []bool{false, true} {
			var frame []byte
			var err error
			if lossy {
				frame, _, err = EncodeLossyTo(nil, orig)
			} else {
				frame, _, err = EncodeTo(nil, orig)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := &Update{}
			if err := DecodeInto(want, frame); err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(&u, frame); err != nil {
				t.Fatal(err)
			}
			if u.Sender != want.Sender || u.Epoch != want.Epoch || u.NumParams != want.NumParams {
				t.Fatalf("trial %d lossy=%v: header mismatch", trial, lossy)
			}
			if len(u.Indices) != len(want.Indices) {
				t.Fatalf("trial %d lossy=%v: %d indices, want %d", trial, lossy, len(u.Indices), len(want.Indices))
			}
			for i := range u.Indices {
				if u.Indices[i] != want.Indices[i] ||
					math.Float64bits(u.Values[i]) != math.Float64bits(want.Values[i]) {
					t.Fatalf("trial %d lossy=%v: entry %d differs", trial, lossy, i)
				}
			}
		}
	}
}

// TestDecodeIntoRejectsUnsortedUnchanged documents the stricter contract:
// unchanged-index lists must be strictly increasing on the wire.
func TestDecodeIntoRejectsUnsortedUnchanged(t *testing.T) {
	u := &Update{Sender: 1, Epoch: 2, NumParams: 6, Indices: []int{0, 3, 5}, Values: []float64{1, 2, 3}}
	frame, err := EncodeAsTo(nil, u, FormatUnchangedList)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two unchanged indices (bytes 17..25 hold them after the
	// header and the 4-byte count).
	bad := append([]byte(nil), frame...)
	copy(bad[17:21], frame[21:25])
	copy(bad[21:25], frame[17:21])
	if err := DecodeInto(&Update{}, bad); err == nil {
		t.Fatal("Decode accepted out-of-order unchanged indices")
	}
}

// TestDiffIntoMatchesDiff pins DiffInto on a reused Update to DiffInto on
// a fresh one.
func TestDiffIntoMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var u Update
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		baseline := make([]float64, n)
		current := make([]float64, n)
		for i := range baseline {
			baseline[i] = rng.NormFloat64()
			current[i] = baseline[i] + rng.NormFloat64()*0.1
		}
		threshold := rng.Float64() * 0.1
		want := &Update{}
		if err := DiffInto(want, 3, trial, baseline, current, threshold); err != nil {
			t.Fatal(err)
		}
		if err := DiffInto(&u, 3, trial, baseline, current, threshold); err != nil {
			t.Fatal(err)
		}
		if u.NumParams != want.NumParams || len(u.Indices) != len(want.Indices) {
			t.Fatalf("trial %d: structure mismatch", trial)
		}
		for i := range u.Indices {
			if u.Indices[i] != want.Indices[i] ||
				math.Float64bits(u.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("trial %d: entry %d differs", trial, i)
			}
		}
	}
}

// TestCodecReuseAllocFree pins the steady-state budget of the reusable
// codec surface to zero allocations per cycle; the decode budget covers a
// float64 and a float32 frame.
func TestCodecReuseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	orig := randomUpdate(rng, 48)
	buf, _, err := EncodeTo(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf...)
	frame32, _, err := EncodeLossyTo(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Update
	if err := DecodeInto(&dec, frame); err != nil {
		t.Fatal(err)
	}
	baseline := make([]float64, 48)
	current := make([]float64, 48)
	for i := range current {
		current[i] = rng.NormFloat64()
	}
	var diff Update
	if err := DiffInto(&diff, 0, 0, baseline, current, 0.1); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(100, func() {
		buf, _, _ = EncodeTo(buf, orig)
	}); n != 0 {
		t.Errorf("EncodeTo allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _, _ = EncodeLossyTo(buf, orig)
	}); n != 0 {
		t.Errorf("EncodeLossyTo allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&dec, frame); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&dec, frame32); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto allocated %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := DiffInto(&diff, 0, 0, baseline, current, 0.1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DiffInto allocated %v times per run, want 0", n)
	}
}
