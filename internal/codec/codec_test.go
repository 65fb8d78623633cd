package codec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestChooseFormatRule(t *testing.T) {
	cases := []struct {
		n, m int
		want Format
	}{
		{100, 0, FormatUnchangedList},  // nothing withheld: list of 0 indices wins
		{100, 49, FormatUnchangedList}, // 100 > 99
		{100, 50, FormatIndexValue},    // 100 <= 101
		{100, 99, FormatIndexValue},
		{3, 1, FormatIndexValue},    // 3 <= 3
		{4, 1, FormatUnchangedList}, // 4 > 3
		{1, 0, FormatIndexValue},    // 1 <= 1
	}
	for _, tc := range cases {
		if got := ChooseFormat(tc.n, tc.m); got != tc.want {
			t.Errorf("ChooseFormat(%d, %d) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestPayloadBytesFormulas(t *testing.T) {
	// Paper §IV-C: 4+8N−4M for format 1, 12(N−M) for format 2.
	if got := PayloadBytes(100, 30, FormatUnchangedList); got != 4+8*100-4*30 {
		t.Errorf("format-1 size = %d, want %d", got, 4+8*100-4*30)
	}
	if got := PayloadBytes(100, 30, FormatIndexValue); got != 12*70 {
		t.Errorf("format-2 size = %d, want %d", got, 12*70)
	}
}

// Property: the selection rule always picks the byte-minimal format.
func TestChooseFormatIsOptimal(t *testing.T) {
	f := func(nRaw uint16, mRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		m := int(mRaw) % (n + 1)
		chosen := ChooseFormat(n, m)
		p1 := PayloadBytes(n, m, FormatUnchangedList)
		p2 := PayloadBytes(n, m, FormatIndexValue)
		best := p1
		if p2 < best {
			best = p2
		}
		return PayloadBytes(n, m, chosen) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomUpdate(rng *rand.Rand, n int) *Update {
	u := &Update{Sender: rng.Intn(100), Epoch: rng.Intn(1000), NumParams: n}
	for idx := 0; idx < n; idx++ {
		if rng.Float64() < 0.5 {
			u.Indices = append(u.Indices, idx)
			u.Values = append(u.Values, rng.NormFloat64())
		}
	}
	return u
}

func updatesEqual(a, b *Update) bool {
	if a.Sender != b.Sender || a.Epoch != b.Epoch || a.NumParams != b.NumParams {
		return false
	}
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTripBothFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		u := randomUpdate(rng, 1+rng.Intn(40))
		for _, f := range []Format{FormatUnchangedList, FormatIndexValue} {
			frame, err := EncodeAsTo(nil, u, f)
			if err != nil {
				t.Fatalf("EncodeAsTo(%v): %v", f, err)
			}
			wantLen := HeaderBytes + PayloadBytes(u.NumParams, u.NumWithheld(), f)
			if len(frame) != wantLen {
				t.Fatalf("format %v frame is %d bytes, want %d", f, len(frame), wantLen)
			}
			got := &Update{}
			if err := DecodeInto(got, frame); err != nil {
				t.Fatalf("Decode(%v): %v", f, err)
			}
			if !updatesEqual(u, got) {
				t.Fatalf("round trip mismatch in %v:\n in: %+v\nout: %+v", f, u, got)
			}
		}
	}
}

func TestEncodePicksCheaperFormat(t *testing.T) {
	// Almost everything updated → few withheld → format 1.
	u := &Update{NumParams: 50}
	for i := 0; i < 48; i++ {
		u.Indices = append(u.Indices, i)
		u.Values = append(u.Values, float64(i))
	}
	_, f, err := EncodeTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatUnchangedList {
		t.Errorf("dense update encoded as %v, want unchanged-list", f)
	}
	// Almost nothing updated → format 2.
	u2 := &Update{NumParams: 50, Indices: []int{3}, Values: []float64{1}}
	_, f2, err := EncodeTo(nil, u2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != FormatIndexValue {
		t.Errorf("sparse update encoded as %v, want index-value", f2)
	}
}

// Property: encode/decode round trip preserves arbitrary updates in
// whichever format Encode chooses.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUpdate(rng, 1+int(nRaw)%64)
		frame, _, err := EncodeTo(nil, u)
		if err != nil {
			return false
		}
		got := &Update{}
		if err := DecodeInto(got, frame); err != nil {
			return false
		}
		return updatesEqual(u, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadUpdates(t *testing.T) {
	cases := []struct {
		name string
		u    Update
	}{
		{"lenMismatch", Update{NumParams: 5, Indices: []int{1}, Values: nil}},
		{"unsorted", Update{NumParams: 5, Indices: []int{2, 1}, Values: []float64{1, 2}}},
		{"duplicate", Update{NumParams: 5, Indices: []int{1, 1}, Values: []float64{1, 2}}},
		{"outOfRange", Update{NumParams: 5, Indices: []int{7}, Values: []float64{1}}},
		{"negativeN", Update{NumParams: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.u.Validate(); err == nil {
				t.Error("invalid update accepted")
			}
			if _, _, err := EncodeTo(nil, &tc.u); err == nil {
				t.Error("Encode accepted invalid update")
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append([]byte{99}, make([]byte, 20)...), // unknown format tag
		append([]byte{2}, make([]byte, HeaderBytes-1+5)...), // format 2, body not multiple of 12
	}
	for i, frame := range cases {
		if err := DecodeInto(&Update{}, frame); err == nil {
			t.Errorf("case %d: garbage frame decoded", i)
		}
	}
}

func TestDecodeRejectsTruncatedUnchangedList(t *testing.T) {
	u := &Update{NumParams: 10, Indices: []int{0, 1, 2, 3, 4, 5, 6, 7}, Values: make([]float64, 8)}
	frame, err := EncodeAsTo(nil, u, FormatUnchangedList)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&Update{}, frame[:len(frame)-3]); err == nil {
		t.Error("truncated frame decoded")
	}
}

func TestApply(t *testing.T) {
	dst := []float64{0, 0, 0, 0}
	u := &Update{NumParams: 4, Indices: []int{1, 3}, Values: []float64{5, -2}}
	if err := Apply(dst, u); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 5, 0, -2}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestApplyDimensionError(t *testing.T) {
	u := &Update{NumParams: 4, Indices: []int{0}, Values: []float64{1}}
	if err := Apply([]float64{0, 0}, u); err == nil {
		t.Error("Apply with wrong target length accepted")
	}
}

func TestDiffThreshold(t *testing.T) {
	baseline := []float64{1, 2, 3, 4}
	current := []float64{1, 2.5, 3.001, 5}
	u := &Update{}
	if err := DiffInto(u, 7, 3, baseline, current, 0.1); err != nil {
		t.Fatal(err)
	}
	if u.Sender != 7 || u.Epoch != 3 {
		t.Errorf("metadata lost: %+v", u)
	}
	if len(u.Indices) != 2 || u.Indices[0] != 1 || u.Indices[1] != 3 {
		t.Fatalf("Diff indices = %v, want [1 3]", u.Indices)
	}
	if u.Values[0] != 2.5 || u.Values[1] != 5 {
		t.Errorf("Diff values = %v", u.Values)
	}
}

func TestDiffZeroThresholdSkipsExactlyUnchanged(t *testing.T) {
	baseline := []float64{1, 2, 3}
	current := []float64{1, 2, 3.5}
	u := &Update{}
	if err := DiffInto(u, 0, 0, baseline, current, 0); err != nil {
		t.Fatal(err)
	}
	if len(u.Indices) != 1 || u.Indices[0] != 2 {
		t.Errorf("Diff(0) indices = %v, want [2]", u.Indices)
	}
	// Negative threshold behaves as zero.
	u2 := &Update{}
	if err := DiffInto(u2, 0, 0, baseline, current, -5); err != nil {
		t.Fatal(err)
	}
	if len(u2.Indices) != 1 {
		t.Errorf("Diff(-5) indices = %v, want [2]", u2.Indices)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	if err := DiffInto(&Update{}, 0, 0, []float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("mismatched Diff accepted")
	}
}

// Property: Diff → Encode → Decode → Apply reconstructs the current vector
// at every transmitted index and leaves the rest at baseline, with the
// residual bounded by the threshold.
func TestDiffApplyProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%32
		threshold := float64(thRaw) / 255.0
		baseline := make([]float64, n)
		current := make([]float64, n)
		for i := range baseline {
			baseline[i] = rng.NormFloat64()
			current[i] = baseline[i] + rng.NormFloat64()
		}
		u := &Update{}
		if err := DiffInto(u, 1, 1, baseline, current, threshold); err != nil {
			return false
		}
		frame, _, err := EncodeTo(nil, u)
		if err != nil {
			return false
		}
		got := &Update{}
		if err := DecodeInto(got, frame); err != nil {
			return false
		}
		reconstructed := append([]float64(nil), baseline...)
		if err := Apply(reconstructed, got); err != nil {
			return false
		}
		for i := range reconstructed {
			if math.Abs(reconstructed[i]-current[i]) > threshold {
				return false
			}
		}
		return sort.IntsAreSorted(got.Indices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFormatString(t *testing.T) {
	if FormatUnchangedList.String() != "unchanged-list" ||
		FormatIndexValue.String() != "index-value" {
		t.Error("format names wrong")
	}
	if Format(9).String() != "Format(9)" {
		t.Errorf("unknown format name = %q", Format(9).String())
	}
}
