// Package unit implements the `go vet -vettool` driver protocol for
// snaplint: the build system invokes the tool once per compilation
// unit with a JSON .cfg file describing sources, the import map, and
// compiler export data, and expects diagnostics on stderr plus a facts
// file at VetxOutput. This mirrors x/tools' unitchecker (which the
// repo cannot vendor offline).
//
// Facts: before the pass, the .vetx files of the unit's dependencies
// (cfg.PackageVetx) are decoded into a facts.Store; after it, the
// facts the analyzers exported for this unit are serialized to
// cfg.VetxOutput, which cmd/go caches and feeds to dependent units.
// Dependency-only units (VetxOnly) are typechecked and analyzed with
// diagnostics discarded, purely to compute their facts.
//
// The protocol, as spoken by cmd/go:
//
//	snaplint -V=full      print a version line for build caching
//	snaplint -flags       print a JSON array describing extra flags
//	snaplint foo.cfg      analyze one unit, exit 1 on findings
//
// Load and Package.Analyze are the one per-package analysis: Run calls
// them for each unit cmd/go hands over, and analysistest calls them for
// each testdata package, so the analyzer suites exercise the code CI
// runs.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"github.com/snapml/snap/internal/analysis/facts"
	"github.com/snapml/snap/internal/analysis/lint"
)

// Config is the JSON compilation-unit description written by cmd/go
// next to each package it vets. Field names are fixed by the protocol.
type Config struct {
	ID                        string            `json:"ID"`
	Compiler                  string            `json:"Compiler"`
	Dir                       string            `json:"Dir"`
	ImportPath                string            `json:"ImportPath"`
	GoVersion                 string            `json:"GoVersion"`
	GoFiles                   []string          `json:"GoFiles"`
	NonGoFiles                []string          `json:"NonGoFiles"`
	IgnoredFiles              []string          `json:"IgnoredFiles"`
	ImportMap                 map[string]string `json:"ImportMap"`
	PackageFile               map[string]string `json:"PackageFile"`
	Standard                  map[string]bool   `json:"Standard"`
	PackageVetx               map[string]string `json:"PackageVetx"`
	VetxOnly                  bool              `json:"VetxOnly"`
	VetxOutput                string            `json:"VetxOutput"`
	SucceedOnTypecheckFailure bool              `json:"SucceedOnTypecheckFailure"`
}

// PrintVersion implements -V=full: a line of the shape
// "<path> version devel ... buildID=<hash>" that changes whenever the
// binary does, so `go vet` invalidates its cache on tool rebuilds.
func PrintVersion(w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s version devel snaplint buildID=%x\n", exe, h.Sum(nil))
	return err
}

// PrintFlags implements -flags. snaplint takes no analyzer flags, so
// the set is empty.
func PrintFlags(w io.Writer) error {
	_, err := fmt.Fprintln(w, "[]")
	return err
}

// Run analyzes the unit described by configFile and returns the
// findings as "file:line:col: message [analyzer]" lines (none in
// VetxOnly mode), also when an analyzer failed; a waiver naming an
// analyzer outside analyzers is one of them. The caller decides the
// exit code. Unless an analyzer failed, the VetxOutput facts file is
// written, even when empty: cmd/go caches it and feeds it to dependent
// units.
func Run(configFile string, analyzers []*lint.Analyzer) ([]string, error) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", configFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}

	store := facts.NewStore(analyzers)
	for path, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			return nil, fmt.Errorf("reading facts of %s: %v", path, err)
		}
		if err := store.Decode(path, data); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	pkg, err := Load(fset, cfg.ImportPath, cfg.GoVersion, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeVetx(cfg, store) // the compiler will report it
		}
		return nil, err
	}
	findings, err := pkg.Analyze(analyzers, store, cfg.VetxOnly)
	if !cfg.VetxOnly {
		findings = append(findings, pkg.unknownWaivers(analyzers)...)
	}
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = fmt.Sprintf("%s: %s [%s]", fset.Position(f.Pos), f.Message, f.Analyzer)
	}
	if err != nil {
		return out, err
	}
	return out, writeVetx(cfg, store)
}

// A Package is one parsed and typechecked compilation unit.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses the named files and typechecks them as package path,
// resolving imports through imp. The first parse or type error is
// returned.
func Load(fset *token.FileSet, path, goVersion string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: imp, GoVersion: goVersion}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// A Finding is one diagnostic that survived the waivers, attributed to
// the analyzer that reported it ("snaplint" for a malformed waiver).
type Finding struct {
	Analyzer string
	lint.Diagnostic
}

// Analyze runs analyzers over p with store's facts installed, so facts
// of already-analyzed dependencies are visible and p's own exports land
// in store. Diagnostics waived by `//snaplint:ignore` are dropped and
// malformed waivers are findings; with vetxOnly (a dependency analyzed
// only for its facts) no finding is returned. An analyzer error does
// not stop the others: the findings collected are returned with the
// joined errors.
func (p *Package) Analyze(analyzers []*lint.Analyzer, store *facts.Store, vetxOnly bool) ([]Finding, error) {
	ignores := lint.NewIgnoreIndex(p.Fset, p.Files)
	var out []Finding
	report := func(analyzer string, d lint.Diagnostic) {
		if !vetxOnly {
			out = append(out, Finding{analyzer, d})
		}
	}
	for _, d := range ignores.Bad {
		report("snaplint", d)
	}
	var errs []error
	for _, a := range analyzers {
		pass := &lint.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Report: func(d lint.Diagnostic) {
				if !ignores.Ignored(d.Pos, a.Name) {
					report(a.Name, d)
				}
			},
		}
		store.Install(pass)
		if _, err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Errorf("analyzer %s: %v", a.Name, err))
		}
	}
	return out, errors.Join(errs...)
}

// unknownWaivers returns one "snaplint" finding per analyzer name that a
// well-formed //snaplint:ignore gives but the roster does not hold: such
// a waiver (a typo, a retired analyzer) waives nothing and would never
// say so. Only the vet driver knows the whole roster; the analysistest
// suites run one analyzer at a time and so do not check names.
func (p *Package) unknownWaivers(roster []*lint.Analyzer) []Finding {
	known := make(map[string]bool, len(roster))
	for _, a := range roster {
		known[a.Name] = true
	}
	var out []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, _, ok, err := lint.ParseIgnore(c.Text)
				if !ok || err != nil {
					continue // not a waiver, or already reported as malformed
				}
				for _, name := range names {
					if !known[name] {
						msg := fmt.Sprintf("snaplint:ignore names unknown analyzer %q", name)
						out = append(out, Finding{"snaplint", lint.Diagnostic{Pos: c.Pos(), Message: msg}})
					}
				}
			}
		}
	}
	return out
}

// writeVetx serializes the unit's exported facts to cfg.VetxOutput
// (facts.NormPath keys test variants under their clean import path).
func writeVetx(cfg *Config, store *facts.Store) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data, err := store.Encode(cfg.ImportPath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		return fmt.Errorf("writing facts output: %v", err)
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
