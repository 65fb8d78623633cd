package facts_test

import (
	"strings"
	"testing"

	"github.com/snapml/snap/internal/analysis/bufown"
	"github.com/snapml/snap/internal/analysis/facts"
	"github.com/snapml/snap/internal/analysis/lint"
)

func TestNormPath(t *testing.T) {
	tests := []struct{ in, want string }{
		{"example.com/p", "example.com/p"},
		{"example.com/p [example.com/p.test]", "example.com/p"},
		{"example.com/p_test [example.com/p.test]", "example.com/p_test"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := facts.NormPath(tt.in); got != tt.want {
			t.Errorf("NormPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

const factType = "github.com/snapml/snap/internal/analysis/bufown.Fact"

func newStore() *facts.Store {
	return facts.NewStore([]*lint.Analyzer{bufown.Analyzer})
}

// TestEncodeDecodeRoundTrip pins the wire format the unitchecker writes
// to .vetx files: decode → encode must reproduce the input bytes, and
// the ordering must be deterministic (the build cache hashes them).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	wire := `[{"obj":"Pool.Get","type":"` + factType + `","data":{"returnsBorrowed":true}},` +
		`{"obj":"RecycleFrame","type":"` + factType + `","data":{"consumes":["frame"]}}]`

	s := newStore()
	if err := s.Decode("example.com/dep", []byte(wire)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Encode("example.com/dep")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != wire {
		t.Errorf("round trip:\n got %s\nwant %s", out, wire)
	}
	if other, err := s.Encode("example.com/other"); err != nil || string(other) != "null" {
		t.Errorf("Encode of factless package = %s, %v", other, err)
	}
}

// TestTestVariantKeying pins the NormPath bridge: facts exported while a
// package was typechecked as its test variant must be visible under the
// clean import path the gc importer hands dependents.
func TestTestVariantKeying(t *testing.T) {
	wire := `[{"obj":"Pool.Get","type":"` + factType + `","data":{"returnsBorrowed":true}}]`
	s := newStore()
	if err := s.Decode("example.com/dep [example.com/dep.test]", []byte(wire)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Encode("example.com/dep")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != wire {
		t.Errorf("test-variant facts not visible under the clean path:\n got %s\nwant %s", out, wire)
	}
}

func TestDecodeErrors(t *testing.T) {
	s := newStore()
	if err := s.Decode("example.com/dep", nil); err != nil {
		t.Errorf("empty vetx data should decode to nothing, got %v", err)
	}
	if err := s.Decode("example.com/dep", []byte("{not json")); err == nil {
		t.Error("malformed JSON must error")
	}
	err := s.Decode("example.com/dep", []byte(`[{"obj":"X","type":"example.com/alien.Fact","data":{}}]`))
	if err == nil || !strings.Contains(err.Error(), "unregistered fact type") {
		t.Errorf("unregistered fact type: got %v", err)
	}
}
