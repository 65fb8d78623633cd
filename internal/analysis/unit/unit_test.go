package unit_test

import (
	"errors"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/snapml/snap/internal/analysis/facts"
	"github.com/snapml/snap/internal/analysis/lint"
	"github.com/snapml/snap/internal/analysis/unit"
)

// TestAnalyzeKeepsFindingsOnAnalyzerError: a failing analyzer neither
// stops the others nor drops what they and the waiver index reported,
// and a VetxOnly unit reports nothing.
func TestAnalyzeKeepsFindingsOnAnalyzerError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "p.go")
	src := "package p\n\n//snaplint:ignore reporter\nfunc F() {}\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := unit.Load(token.NewFileSet(), "p", "", []string{file}, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	broken := &lint.Analyzer{Name: "broken", Run: func(*lint.Pass) (any, error) {
		return nil, errors.New("boom")
	}}
	reporter := &lint.Analyzer{Name: "reporter", Run: func(p *lint.Pass) (any, error) {
		p.Reportf(p.Files[0].Name.Pos(), "found")
		return nil, nil
	}}
	as := []*lint.Analyzer{broken, reporter}

	findings, err := pkg.Analyze(as, facts.NewStore(as), false)
	if err == nil || !strings.Contains(err.Error(), "analyzer broken: boom") {
		t.Errorf("err = %v, want the broken analyzer's error", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	want := "snaplint: snaplint:ignore reporter: missing reason|reporter: found"
	if strings.Join(got, "|") != want {
		t.Errorf("findings = %q, want %q", got, want)
	}

	if findings, _ := pkg.Analyze(as, facts.NewStore(as), true); len(findings) != 0 {
		t.Errorf("VetxOnly findings = %v, want none", findings)
	}
}
