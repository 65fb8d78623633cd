// Package lint is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis core: an Analyzer is a named check, a
// Pass hands it one typechecked package, and diagnostics flow back
// through Pass.Report. The repo cannot vendor x/tools (builds run
// offline), so snaplint's analyzers are written against this interface
// instead; it is deliberately API-compatible with the subset of
// go/analysis they need, so migrating to the real framework later is a
// matter of changing import paths.
//
// Compared to go/analysis this framework omits Requires/ResultOf
// (analyzer dependencies), but it does support Facts: an analyzer can
// attach serializable observations to package-level objects (or whole
// packages) of the unit it is analyzing, and later, when a dependent
// package is analyzed, query the facts of imported objects. Facts flow
// between compilation units through go vet's `.vetx` files (in-process
// in analysistest), which is what lets annotations like
// `//snap:returns-borrowed` propagate across package boundaries.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// A Fact is a cross-package observation about a package-level object or
// a package, exported by an analyzer while analyzing the declaring
// compilation unit and importable by the same analyzer from any
// dependent unit. Fact types must be pointers to JSON-serializable
// structs, be declared in Analyzer.FactTypes, and implement the AFact
// marker method.
type Fact interface {
	AFact() // dummy marker method
}

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `snaplint help`.
	Doc string

	// Run applies the analyzer to a single package. It may return a
	// result value (unused by the driver) and an error; an error fails
	// the whole run, so analyzers report findings via pass.Report
	// instead.
	Run func(*Pass) (any, error)

	// FactTypes lists prototypes (e.g. new(isAllocFree)) of every fact
	// type the analyzer exports or imports. A fact of an undeclared
	// type is a driver error.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with a single typechecked package
// and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. Drivers install it.
	Report func(Diagnostic)

	// ExportObjectFact associates fact with obj, which must be a
	// package-level object (or method) declared by this pass's package.
	// Drivers install it; it is nil-safe to leave uninstalled in tests
	// that exercise a factless analyzer.
	ExportObjectFact func(obj types.Object, fact Fact)

	// ImportObjectFact copies into fact the fact of matching type
	// previously exported for obj (by this pass or by the pass over
	// obj's declaring package) and reports whether one existed.
	ImportObjectFact func(obj types.Object, fact Fact) bool

	// ExportPackageFact associates fact with the current package.
	ExportPackageFact func(fact Fact)

	// ImportPackageFact copies into fact the fact of matching type
	// exported for pkg and reports whether one existed.
	ImportPackageFact func(pkg *types.Package, fact Fact) bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding tied to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // optional sub-category within the analyzer
	Message  string
}

// Validate checks analyzer metadata the way go/analysis does, so a
// misregistered analyzer fails fast at driver start rather than
// producing anonymous diagnostics.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	factTypes := make(map[reflect.Type]string)
	for _, a := range analyzers {
		if a == nil {
			return fmt.Errorf("nil *Analyzer")
		}
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analyzer %q: missing Name or Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		for _, f := range a.FactTypes {
			if f == nil {
				return fmt.Errorf("analyzer %q: nil fact type", a.Name)
			}
			t := reflect.TypeOf(f)
			if t.Kind() != reflect.Pointer {
				return fmt.Errorf("analyzer %q: fact type %T is not a pointer", a.Name, f)
			}
			if prev, dup := factTypes[t]; dup {
				return fmt.Errorf("analyzers %q and %q share fact type %T", prev, a.Name, f)
			}
			factTypes[t] = a.Name
		}
	}
	return nil
}
