package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/snapml/snap/internal/analysis/lint"
)

func TestParseIgnore(t *testing.T) {
	tests := []struct {
		text      string
		ok        bool
		wantErr   bool
		analyzers []string
		reason    string
	}{
		{"//snaplint:ignore bufown cold path", true, false, []string{"bufown"}, "cold path"},
		{"//snaplint:ignore bufown,lockguard shared reason", true, false, []string{"bufown", "lockguard"}, "shared reason"},
		{"//snaplint:ignore", true, true, nil, ""},                       // no analyzer
		{"//snaplint:ignore bufown", true, true, nil, ""},                // no reason
		{"//snaplint:ignore bufown,,lockguard why", true, true, nil, ""}, // empty analyzer
		{"//snaplint:ignored bufown why", false, false, nil, ""},         // prefix must end the word
		{"// snaplint:ignore bufown why", false, false, nil, ""},
		{"plain comment", false, false, nil, ""},
	}
	for _, tt := range tests {
		analyzers, reason, ok, err := lint.ParseIgnore(tt.text)
		if ok != tt.ok || (err != nil) != tt.wantErr {
			t.Errorf("ParseIgnore(%q) = ok %v err %v, want ok %v err %v", tt.text, ok, err, tt.ok, tt.wantErr)
			continue
		}
		if tt.wantErr || !tt.ok {
			continue
		}
		if strings.Join(analyzers, ",") != strings.Join(tt.analyzers, ",") {
			t.Errorf("ParseIgnore(%q) analyzers = %v, want %v", tt.text, analyzers, tt.analyzers)
		}
		if reason != tt.reason {
			t.Errorf("ParseIgnore(%q) reason = %q, want %q", tt.text, reason, tt.reason)
		}
	}
}

// TestIgnoreIndex covers what the analysistest `// want` harness cannot:
// two line comments cannot share a source line, so the own-line /
// next-line span and the malformed-directive reporting are pinned here
// against a hand-built file.
func TestIgnoreIndex(t *testing.T) {
	src := `package p

//snaplint:ignore bufown reason one
var a int // line 4: waived (directive line + 1)

var b int // line 6: not waived

//snaplint:ignore lockguard
var c int // line 9: directive above is malformed (no reason), so no waiver
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ix := lint.NewIgnoreIndex(fset, []*ast.File{f})

	posOnLine := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	if !ix.Ignored(posOnLine(3), "bufown") {
		t.Error("directive's own line not waived")
	}
	if !ix.Ignored(posOnLine(4), "bufown") {
		t.Error("line below directive not waived")
	}
	if ix.Ignored(posOnLine(5), "bufown") {
		t.Error("two lines below directive wrongly waived")
	}
	if ix.Ignored(posOnLine(4), "lockguard") {
		t.Error("unnamed analyzer wrongly waived")
	}
	if ix.Ignored(posOnLine(6), "bufown") {
		t.Error("unrelated line wrongly waived")
	}
	if len(ix.Bad) != 1 {
		t.Fatalf("Bad = %d diagnostics, want 1 (the reasonless directive)", len(ix.Bad))
	}
	if !strings.Contains(ix.Bad[0].Message, "missing reason") {
		t.Errorf("Bad[0] = %q, want a missing-reason report", ix.Bad[0].Message)
	}
	if ix.Ignored(posOnLine(9), "lockguard") {
		t.Error("malformed directive must not waive anything")
	}
}

// FuzzParseIgnore pins the no-panic contract and the ok/err invariants
// for arbitrary comment text.
func FuzzParseIgnore(f *testing.F) {
	seeds := []string{
		"//snaplint:ignore bufown reason",
		"//snaplint:ignore a,b,c reason words",
		"//snaplint:ignore",
		"//snaplint:ignore ,",
		"//snaplint:ignore\t\tx\t\ty",
		"//snaplint:ignoreX y z",
		"//snaplint:ignore \x00 \x00",
		strings.Repeat(",", 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzers, reason, ok, err := lint.ParseIgnore(text)
		if !ok {
			if err != nil {
				t.Fatalf("ParseIgnore(%q): not a directive but err = %v", text, err)
			}
			return
		}
		if err != nil {
			return // malformed directive: surfaced as a finding, nothing else to hold
		}
		if len(analyzers) == 0 {
			t.Fatalf("ParseIgnore(%q) ok without analyzers", text)
		}
		for _, a := range analyzers {
			if a == "" {
				t.Fatalf("ParseIgnore(%q) produced an empty analyzer name", text)
			}
		}
		if reason == "" {
			t.Fatalf("ParseIgnore(%q) ok without a reason", text)
		}
	})
}
