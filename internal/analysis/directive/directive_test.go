package directive_test

import (
	"strings"
	"testing"
	"unicode"

	"github.com/snapml/snap/internal/analysis/directive"
)

func TestParse(t *testing.T) {
	tests := []struct {
		text string
		ok   bool
		name string
		args []string
	}{
		{"//snap:returns-borrowed", true, "returns-borrowed", nil},
		{"//snap:consumes b", true, "consumes", []string{"b"}},
		{"//snap:borrows frame raw", true, "borrows", []string{"frame", "raw"}},
		{"//snap:wire   ", true, "wire", nil},
		{"// snap:wire", false, "", nil},            // space after //
		{"//snap: wire", false, "", nil},            // space after colon
		{"//snap:", false, "", nil},                 // no name
		{"//snap:Wire", false, "", nil},             // uppercase
		{"//snap:returns_borrowed", false, "", nil}, // underscore
		{"//snapx:wire", false, "", nil},            // wrong prefix
		{"//go:noinline", false, "", nil},           // other tool's namespace
		{"plain comment text", false, "", nil},
		{"", false, "", nil},
	}
	for _, tt := range tests {
		d, ok := directive.Parse(tt.text, 0)
		if ok != tt.ok {
			t.Errorf("Parse(%q) ok = %v, want %v", tt.text, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if d.Name != tt.name {
			t.Errorf("Parse(%q) name = %q, want %q", tt.text, d.Name, tt.name)
		}
		if len(d.Args) != len(tt.args) {
			t.Errorf("Parse(%q) args = %v, want %v", tt.text, d.Args, tt.args)
			continue
		}
		for i := range d.Args {
			if d.Args[i] != tt.args[i] {
				t.Errorf("Parse(%q) args = %v, want %v", tt.text, d.Args, tt.args)
				break
			}
		}
	}
}

// FuzzParse pins the "never panics, never mis-lexes" contract: any
// comment text either parses to a well-formed directive or to nothing.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"//snap:returns-borrowed",
		"//snap:consumes b",
		"//snap:",
		"//snap: x",
		"//snap:\t\t",
		"//snap:a\x00b",
		"//snap:wire\nextra line",
		"//snap:名前",
		strings.Repeat("//snap:", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := directive.Parse(text, 0)
		if !ok {
			return
		}
		if d.Name == "" {
			t.Fatalf("Parse(%q) accepted an empty directive name", text)
		}
		for _, r := range d.Name {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
				t.Fatalf("Parse(%q) accepted name %q with invalid rune %q", text, d.Name, r)
			}
		}
		for _, a := range d.Args {
			if a == "" || strings.IndexFunc(a, unicode.IsSpace) >= 0 {
				t.Fatalf("Parse(%q) produced malformed arg %q", text, a)
			}
		}
	})
}
