package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSyntheticCreditShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := SyntheticCredit(CreditConfig{Samples: 1000, Features: 24}, rng)
	if ds.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", ds.Len())
	}
	if ds.NumFeature != 24 || ds.NumClasses != 2 {
		t.Fatalf("shape = (%d feats, %d classes), want (24, 2)", ds.NumFeature, ds.NumClasses)
	}
	for i, s := range ds.Samples {
		if len(s.X) != 24 {
			t.Fatalf("sample %d has %d features", i, len(s.X))
		}
		if s.Label != 0 && s.Label != 1 {
			t.Fatalf("sample %d has label %d", i, s.Label)
		}
	}
}

func TestSyntheticCreditImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := SyntheticCredit(CreditConfig{Samples: 20000}, rng)
	pos := 0
	for _, s := range ds.Samples {
		pos += s.Label
	}
	rate := float64(pos) / float64(ds.Len())
	// Target 22% (the UCI corpus rate); allow generous tolerance.
	if rate < 0.12 || rate > 0.35 {
		t.Errorf("positive rate = %v, want ≈ 0.22", rate)
	}
}

func TestSyntheticCreditDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := SyntheticCredit(CreditConfig{Samples: 10}, rng)
	if ds.NumFeature != 24 {
		t.Errorf("default features = %d, want 24", ds.NumFeature)
	}
}

func TestSyntheticCreditDeterministic(t *testing.T) {
	a := SyntheticCredit(CreditConfig{Samples: 50}, rand.New(rand.NewSource(9)))
	b := SyntheticCredit(CreditConfig{Samples: 50}, rand.New(rand.NewSource(9)))
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("same seed produced different labels")
		}
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				t.Fatal("same seed produced different features")
			}
		}
	}
}

func TestSyntheticDigitsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train, test := SyntheticDigits(DigitsConfig{Train: 200, Test: 50, Side: 12}, rng)
	if train.Len() != 200 || test.Len() != 50 {
		t.Fatalf("sizes = (%d, %d), want (200, 50)", train.Len(), test.Len())
	}
	if train.NumFeature != 144 || train.NumClasses != 10 {
		t.Fatalf("features = %d classes = %d, want 144/10", train.NumFeature, train.NumClasses)
	}
	for _, s := range train.Samples {
		if s.Label < 0 || s.Label > 9 {
			t.Fatalf("label %d out of range", s.Label)
		}
		for _, v := range s.X {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("pixel %v out of [0,1]", v)
			}
		}
	}
}

func TestSyntheticDigitsAllClassesPresent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, _ := SyntheticDigits(DigitsConfig{Train: 500, Test: 10, Side: 10}, rng)
	seen := make(map[int]bool)
	for _, s := range train.Samples {
		seen[s.Label] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d classes present in 500 samples", len(seen))
	}
}

func TestSyntheticDigitsClassesDistinct(t *testing.T) {
	// Mean images of different classes should differ noticeably; otherwise
	// the task is unlearnable.
	rng := rand.New(rand.NewSource(6))
	train, _ := SyntheticDigits(DigitsConfig{Train: 2000, Test: 10, Side: 10, Noise: 0.1}, rng)
	means := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range means {
		means[i] = make([]float64, train.NumFeature)
	}
	for _, s := range train.Samples {
		counts[s.Label]++
		for j, v := range s.X {
			means[s.Label][j] += v
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	var minDist = math.Inf(1)
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			var d float64
			for j := range means[a] {
				diff := means[a][j] - means[b][j]
				d += diff * diff
			}
			if d = math.Sqrt(d); d < minDist {
				minDist = d
			}
		}
	}
	if minDist < 0.3 {
		t.Errorf("closest class-mean distance = %v; prototypes too similar", minDist)
	}
}

func TestPartitionCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := SyntheticCredit(CreditConfig{Samples: 100}, rng)
	parts, err := ds.Partition(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range parts {
		if p.Len() == 0 {
			t.Errorf("partition %d empty", i)
		}
		if p.NumFeature != ds.NumFeature || p.NumClasses != ds.NumClasses {
			t.Errorf("partition %d lost metadata", i)
		}
		total += p.Len()
	}
	if total != ds.Len() {
		t.Errorf("partitions hold %d samples, want %d", total, ds.Len())
	}
}

func TestPartitionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := SyntheticCredit(CreditConfig{Samples: 5}, rng)
	if _, err := ds.Partition(0, rng); err == nil {
		t.Error("Partition(0) accepted")
	}
	if _, err := ds.Partition(-1, rng); err == nil {
		t.Error("Partition(-1) accepted")
	}
	if _, err := ds.Partition(6, rng); err == nil {
		t.Error("Partition larger than dataset accepted")
	}
}

// Property: every partition size is valid and sizes sum to the original.
func TestPartitionProperty(t *testing.T) {
	base := SyntheticCredit(CreditConfig{Samples: 200}, rand.New(rand.NewSource(10)))
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%20
		parts, err := base.Partition(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		total := 0
		for _, p := range parts {
			if p.Len() == 0 {
				return false
			}
			total += p.Len()
		}
		return total == base.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := SyntheticCredit(CreditConfig{Samples: 100}, rng)
	train, test := ds.Split(0.8, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split = (%d, %d), want (80, 20)", train.Len(), test.Len())
	}
	// Degenerate fractions clamp.
	all, none := ds.Split(1.5, rng)
	if all.Len() != 100 || none.Len() != 0 {
		t.Errorf("Split(1.5) = (%d, %d)", all.Len(), none.Len())
	}
}

func TestBatchWrapsAround(t *testing.T) {
	ds := &Dataset{NumFeature: 1, NumClasses: 2}
	for i := 0; i < 5; i++ {
		ds.Samples = append(ds.Samples, Sample{X: []float64{float64(i)}, Label: 0})
	}
	b := ds.Batch(1, 3) // starts at (1*3)%5 = 3 → samples 3,4,0
	if len(b) != 3 {
		t.Fatalf("batch size = %d, want 3", len(b))
	}
	if b[0].X[0] != 3 || b[1].X[0] != 4 || b[2].X[0] != 0 {
		t.Errorf("batch = [%v %v %v], want [3 4 0]", b[0].X[0], b[1].X[0], b[2].X[0])
	}
}

func TestBatchEdgeCases(t *testing.T) {
	ds := &Dataset{}
	if b := ds.Batch(0, 10); b != nil {
		t.Error("batch of empty dataset should be nil")
	}
	ds = &Dataset{Samples: []Sample{{X: []float64{1}}}}
	if b := ds.Batch(0, 0); b != nil {
		t.Error("zero-size batch should be nil")
	}
	if b := ds.Batch(3, 10); len(b) != 1 {
		t.Error("oversized batch should return all samples")
	}
}

func TestSubsetIndependentMetadata(t *testing.T) {
	ds := &Dataset{
		Samples:    []Sample{{X: []float64{1}, Label: 1}, {X: []float64{2}, Label: 0}},
		NumFeature: 1,
		NumClasses: 2,
	}
	sub := ds.Subset([]int{1})
	if sub.Len() != 1 || sub.Samples[0].Label != 0 {
		t.Errorf("Subset wrong: %+v", sub.Samples)
	}
}

// TestPartitionOwnsContiguousRows pins what Partition and
// PartitionNonIID hand each server: the rows, labels and order of the
// index lists the view-based partition produced at these seeds, copied
// end to end into one array with cap == len per row, and untouched by a
// later write to the source.
func TestPartitionOwnsContiguousRows(t *testing.T) {
	src := &Dataset{NumFeature: 3, NumClasses: 3}
	for i := 0; i < 30; i++ {
		f := float64(i)
		src.Samples = append(src.Samples, Sample{X: []float64{f, -f, f + 0.25}, Label: i % 3})
	}
	iid, err := src.Partition(4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	nonIID, err := src.PartitionNonIID(4, 0.3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		parts []*Dataset
		want  [][]int
	}{
		{"Partition", iid, [][]int{
			{0, 1, 4, 16, 18, 22, 29},
			{3, 8, 9, 13, 14, 17, 25},
			{2, 5, 11, 15, 19, 20, 23, 26, 27},
			{6, 7, 10, 12, 21, 24, 28},
		}},
		{"PartitionNonIID", nonIID, [][]int{
			{5, 11, 26},
			{9, 13, 24},
			{2, 8, 14, 17, 20, 23, 29},
			{0, 1, 3, 4, 6, 7, 10, 12, 15, 16, 18, 19, 21, 22, 25, 27, 28},
		}},
	} {
		var prev []float64 // the previous row, across parts
		for k, part := range tc.parts {
			if len(part.Samples) != len(tc.want[k]) {
				t.Fatalf("%s part %d: %d rows, want %d", tc.name, k, len(part.Samples), len(tc.want[k]))
			}
			for i, s := range part.Samples {
				from := src.Samples[tc.want[k][i]]
				if s.Label != from.Label || len(s.X) != len(from.X) || cap(s.X) != len(s.X) {
					t.Fatalf("%s part %d row %d: label %d, len %d, cap %d; want source row %d (label %d, len %d) with cap == len",
						tc.name, k, i, s.Label, len(s.X), cap(s.X), tc.want[k][i], from.Label, len(from.X))
				}
				for j := range s.X {
					if s.X[j] != from.X[j] {
						t.Fatalf("%s part %d row %d = %v, want source row %d = %v", tc.name, k, i, s.X, tc.want[k][i], from.X)
					}
				}
				if &s.X[0] == &from.X[0] {
					t.Fatalf("%s part %d row %d shares the source's storage", tc.name, k, i)
				}
				if prev != nil && uintptr(unsafe.Pointer(&prev[len(prev)-1]))+8 != uintptr(unsafe.Pointer(&s.X[0])) {
					t.Fatalf("%s part %d row %d does not follow the previous row in one array", tc.name, k, i)
				}
				prev = s.X
			}
		}
	}

	// A later write to the source reaches no part.
	for _, s := range src.Samples {
		s.X[0] = -1
	}
	for _, parts := range [][]*Dataset{iid, nonIID} {
		for k, part := range parts {
			for i, s := range part.Samples {
				if s.X[0] == -1 {
					t.Fatalf("part %d row %d changed with the source", k, i)
				}
			}
		}
	}
}
