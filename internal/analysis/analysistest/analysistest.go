// Package analysistest runs a lint.Analyzer over packages under a
// testdata tree and checks its diagnostics against expectations written
// in the sources as trailing comments:
//
//	x.count++ // want `not guarded`
//
// Each string after "want" is a regular expression that must match a
// diagnostic reported on that line; diagnostics not matched by any
// expectation, and expectations not matched by any diagnostic, fail the
// test. This is the x/tools analysistest contract, run through the same
// per-package analysis (unit.Load, unit.Package.Analyze) as the go vet
// driver.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"path"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"github.com/snapml/snap/internal/analysis/facts"
	"github.com/snapml/snap/internal/analysis/lint"
	"github.com/snapml/snap/internal/analysis/unit"
)

type key struct {
	file string
	line int
}

// Run analyzes testdata/src/<pkg> for each named package and reports
// mismatches via t. testdata is relative to the test's package
// directory (go test's working directory), so each testdata package's
// import path is the test package's path joined with it. Files are
// parsed from the directory and typechecked with the stdlib source
// importer, which resolves imports — intra-repo ones included — from
// source.
//
// All named packages share one fact store and are analyzed in the
// given order, so cross-package fact propagation is testable: list the
// dependency before the dependent (Run(t, td, a, "b", "a") where
// package a imports package b), and diagnostics in a derived from
// facts exported while analyzing b match `// want` expectations like
// any other. `//snaplint:ignore` waivers are honored exactly as in the
// go vet driver — a waived diagnostic needs no want, and a malformed
// directive is itself a reportable diagnostic.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		t.Fatal("analysistest: no build info to derive testdata import paths from")
	}
	root := path.Join(strings.TrimSuffix(bi.Path, ".test"), filepath.ToSlash(testdata), "src")
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	analyzers := []*lint.Analyzer{a}
	store := facts.NewStore(analyzers)
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		files, _ := filepath.Glob(filepath.Join(dir, "*.go")) // only a malformed pattern errors
		if len(files) == 0 {
			t.Errorf("%s: no .go files in %s", a.Name, dir)
			continue
		}
		p, err := unit.Load(fset, path.Join(root, pkg), "", files, imp)
		if err != nil {
			t.Errorf("%s: loading %s: %v", a.Name, dir, err)
			continue
		}
		findings, err := p.Analyze(analyzers, store, false)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		check(t, a, p, findings)
	}
}

func check(t *testing.T, a *lint.Analyzer, p *unit.Package, findings []unit.Finding) {
	t.Helper()
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	want := make(map[key][]*expectation)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok := wantPatterns(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", posString(p.Fset, f, c), pat, err)
						continue
					}
					want[k] = append(want[k], &expectation{re: re})
				}
			}
		}
	}

	for _, d := range findings {
		pos := p.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		exps := want[k]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", a.Name, pos, d.Message)
		}
	}
	for k, exps := range want {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: %s:%d: no diagnostic matching %q", a.Name, k.file, k.line, e.re)
			}
		}
	}
}

// wantPatterns extracts the expectation strings from a `// want ...`
// comment: each argument is a Go string literal (quoted or backquoted).
func wantPatterns(text string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		return nil, false
	}
	var out []string
	rest = strings.TrimSpace(rest)
	for rest != "" {
		switch rest[0] {
		case '"':
			end := 1
			for end < len(rest) {
				if rest[end] == '\\' {
					end += 2
					continue
				}
				if rest[end] == '"' {
					break
				}
				end++
			}
			if end >= len(rest) {
				return nil, false
			}
			s, err := strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, false
			}
			out = append(out, s)
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, false
			}
			out = append(out, rest[1:end+1])
			rest = strings.TrimSpace(rest[end+2:])
		default:
			return nil, false
		}
	}
	return out, len(out) > 0
}

func posString(fset *token.FileSet, f *ast.File, n ast.Node) string {
	p := fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
