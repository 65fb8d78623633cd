package codec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChooseFormat32SameRule(t *testing.T) {
	// The float32 crossover coincides with the float64 one: N > 2M+1.
	f := func(nRaw, mRaw uint16) bool {
		n := int(nRaw)%500 + 1
		m := int(mRaw) % (n + 1)
		want64 := ChooseFormat(n, m) == FormatUnchangedList
		want32 := ChooseFormat32(n, m) == FormatUnchangedList32
		return want64 == want32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChooseFormat32IsOptimal(t *testing.T) {
	f := func(nRaw, mRaw uint16) bool {
		n := int(nRaw)%500 + 1
		m := int(mRaw) % (n + 1)
		chosen := ChooseFormat32(n, m)
		p3 := PayloadBytes(n, m, FormatUnchangedList32)
		p4 := PayloadBytes(n, m, FormatIndexValue32)
		best := p3
		if p4 < best {
			best = p4
		}
		return PayloadBytes(n, m, chosen) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPayloadBytes32Formulas(t *testing.T) {
	if got := PayloadBytes(100, 30, FormatUnchangedList32); got != 4+4*100 {
		t.Errorf("format-3 size = %d, want %d", got, 4+4*100)
	}
	if got := PayloadBytes(100, 30, FormatIndexValue32); got != 8*70 {
		t.Errorf("format-4 size = %d, want %d", got, 8*70)
	}
}

func TestEncodeLossyHalvesBytes(t *testing.T) {
	u := &Update{NumParams: 1000}
	for i := 0; i < 1000; i++ {
		u.Indices = append(u.Indices, i)
		u.Values = append(u.Values, float64(i)*0.001)
	}
	full, _, err := EncodeTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	lossy, f, err := EncodeLossyTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatUnchangedList32 {
		t.Errorf("dense lossy frame used %v", f)
	}
	if len(lossy) >= len(full)*6/10 {
		t.Errorf("lossy frame %d bytes vs full %d — expected ≈ half", len(lossy), len(full))
	}
}

// Property: lossy round trip preserves structure exactly and values to
// float32 precision, in both float32 formats.
func TestLossyRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUpdate(rng, 1+int(nRaw)%64)
		frame, _, err := EncodeLossyTo(nil, u)
		if err != nil {
			return false
		}
		got := &Update{}
		if err := DecodeInto(got, frame); err != nil {
			return false
		}
		if got.Sender != u.Sender || got.Epoch != u.Epoch || got.NumParams != u.NumParams {
			return false
		}
		if len(got.Indices) != len(u.Indices) {
			return false
		}
		for i := range u.Indices {
			if got.Indices[i] != u.Indices[i] {
				return false
			}
			if got.Values[i] != float64(float32(u.Values[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLossyBothFormatsExercised(t *testing.T) {
	// Dense update → format 3; sparse update → format 4.
	dense := &Update{NumParams: 20}
	for i := 0; i < 20; i++ {
		dense.Indices = append(dense.Indices, i)
		dense.Values = append(dense.Values, float64(i))
	}
	_, f, err := EncodeLossyTo(nil, dense)
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatUnchangedList32 {
		t.Errorf("dense = %v", f)
	}
	sparse := &Update{NumParams: 20, Indices: []int{3}, Values: []float64{1.5}}
	frame, f2, err := EncodeLossyTo(nil, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != FormatIndexValue32 {
		t.Errorf("sparse = %v", f2)
	}
	got := &Update{}
	if err := DecodeInto(got, frame); err != nil {
		t.Fatal(err)
	}
	if got.Values[0] != 1.5 {
		t.Errorf("value = %v", got.Values[0])
	}
}

func TestDecode32RejectsGarbage(t *testing.T) {
	u := &Update{NumParams: 10, Indices: []int{0, 1}, Values: []float64{1, 2}}
	frame, _, err := EncodeLossyTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&Update{}, frame[:len(frame)-1]); err == nil {
		t.Error("truncated float32 frame decoded")
	}
	// Corrupt the format tag into the other float32 format with a body
	// that cannot parse.
	bad := append([]byte(nil), frame...)
	bad[0] = byte(FormatUnchangedList32)
	if err := DecodeInto(&Update{}, bad); err == nil {
		t.Error("mismatched float32 body decoded")
	}
}

func TestFloat32FormatNames(t *testing.T) {
	if FormatUnchangedList32.String() != "unchanged-list-f32" ||
		FormatIndexValue32.String() != "index-value-f32" {
		t.Error("float32 format names wrong")
	}
}

func TestFloat32PrecisionBound(t *testing.T) {
	u := &Update{NumParams: 3, Indices: []int{0, 1, 2}, Values: []float64{math.Pi, -math.E, 1e-8}}
	frame, _, err := EncodeLossyTo(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	got := &Update{}
	if err := DecodeInto(got, frame); err != nil {
		t.Fatal(err)
	}
	for i, v := range u.Values {
		rel := math.Abs(got.Values[i]-v) / math.Max(math.Abs(v), 1e-30)
		if rel > 1e-6 {
			t.Errorf("value %d relative error %v exceeds float32 precision", i, rel)
		}
	}
}
