// Package facts carries analyzer facts across compilation units. A fact
// (lint.Fact) is attached to a package-level object or a package;
// because a dependent unit re-imports its dependencies (from compiler
// export data under go vet, from source in analysistest), an object's
// identity differs between the pass that exported a fact and the pass
// that imports it, so facts are keyed by name — package path plus an
// object path ("Func", "Type.Method") — rather than by types.Object
// pointer.
//
// The same store backs two transports:
//
//   - the vet unitchecker driver decodes the .vetx files of the unit's
//     dependencies into a Store before the pass and encodes the unit's
//     own exported facts to VetxOutput after it (JSON, deterministic
//     ordering, so the build cache sees stable bytes);
//   - analysistest keeps one in-process Store, seeded by the dependency
//     packages listed before the package under test.
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"github.com/snapml/snap/internal/analysis/lint"
)

type key struct {
	pkg string // package path
	obj string // object path; "" for package facts
}

// NormPath strips a go list test-variant suffix ("pkg [pkg.test]" →
// "pkg") so facts key identically whether a package was typechecked as
// itself or as its in-package test variant: objects imported from
// export data always carry the clean path.
func NormPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// A Store holds facts for one analysis session, keyed by name.
type Store struct {
	facts     map[key]map[string]lint.Fact
	factTypes map[string]reflect.Type // registered fact type name → type
}

// NewStore builds a store with the fact types of the given analyzers
// registered (required for decoding). Analyzers must already have
// passed lint.Validate.
func NewStore(analyzers []*lint.Analyzer) *Store {
	s := &Store{
		facts:     make(map[key]map[string]lint.Fact),
		factTypes: make(map[string]reflect.Type),
	}
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			s.factTypes[factName(f)] = reflect.TypeOf(f)
		}
	}
	return s
}

// factName returns the serialization name of a fact's type: the
// pointee's package-qualified type name.
func factName(f lint.Fact) string {
	t := reflect.TypeOf(f).Elem()
	return t.PkgPath() + "." + t.Name()
}

// ObjectKey derives the name key of a package-level object: "Name" for
// package-scope functions, types, vars and consts; "Recv.Name" for
// methods (including interface methods), with pointer receivers
// dereferenced. ok is false for objects facts cannot be attached to
// (locals, struct fields, objects without a package).
func ObjectKey(obj types.Object) (pkgPath, objPath string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	pkgPath = NormPath(obj.Pkg().Path())
	if fn, isFn := obj.(*types.Func); isFn {
		sig, sigOK := fn.Type().(*types.Signature)
		if sigOK && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed {
				return "", "", false
			}
			return pkgPath, named.Obj().Name() + "." + fn.Name(), true
		}
		return pkgPath, fn.Name(), true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", "", false // not package-level
	}
	return pkgPath, obj.Name(), true
}

func (s *Store) set(k key, f lint.Fact) {
	m := s.facts[k]
	if m == nil {
		m = make(map[string]lint.Fact)
		s.facts[k] = m
	}
	m[factName(f)] = f
}

// get copies the stored fact matching dst's type into dst.
func (s *Store) get(k key, dst lint.Fact) bool {
	stored, ok := s.facts[k][factName(dst)]
	if !ok {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Install wires the pass's fact callbacks to this store. Exports are
// restricted to objects of the pass's own package, mirroring
// go/analysis.
func (s *Store) Install(pass *lint.Pass) {
	pass.ExportObjectFact = func(obj types.Object, fact lint.Fact) {
		pkg, objPath, ok := ObjectKey(obj)
		if !ok {
			panic(fmt.Sprintf("facts: cannot attach fact to %v (not a package-level object)", obj))
		}
		if obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("facts: analyzer %s exported fact for %v of foreign package %s",
				pass.Analyzer.Name, obj, pkg))
		}
		s.set(key{pkg, objPath}, fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact lint.Fact) bool {
		pkg, objPath, ok := ObjectKey(obj)
		if !ok {
			return false
		}
		return s.get(key{pkg, objPath}, fact)
	}
	pass.ExportPackageFact = func(fact lint.Fact) {
		s.set(key{NormPath(pass.Pkg.Path()), ""}, fact)
	}
	pass.ImportPackageFact = func(pkg *types.Package, fact lint.Fact) bool {
		if pkg == nil {
			return false
		}
		return s.get(key{NormPath(pkg.Path()), ""}, fact)
	}
}

// wireFact is the serialized form of one fact.
type wireFact struct {
	Obj  string          `json:"obj,omitempty"` // object path; empty = package fact
	Type string          `json:"type"`          // registered fact type name
	Data json.RawMessage `json:"data"`
}

// Encode serializes every fact attached to pkgPath (the unit's own
// exports) in a deterministic order — the unitchecker writes this to
// VetxOutput, which the build cache hashes.
func (s *Store) Encode(pkgPath string) ([]byte, error) {
	pkgPath = NormPath(pkgPath)
	var out []wireFact
	for k, m := range s.facts {
		if k.pkg != pkgPath {
			continue
		}
		for name, f := range m {
			data, err := json.Marshal(f)
			if err != nil {
				return nil, fmt.Errorf("facts: encoding %s fact on %s.%s: %v", name, k.pkg, k.obj, err)
			}
			out = append(out, wireFact{Obj: k.obj, Type: name, Data: data})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Type < out[j].Type
	})
	return json.Marshal(out)
}

// Decode merges a dependency's serialized facts (attributed to pkgPath)
// into the store. Unregistered fact types are an error: every driver
// registers the full analyzer set, so an unknown type means the vetx
// file was produced by a different tool build.
func (s *Store) Decode(pkgPath string, data []byte) error {
	pkgPath = NormPath(pkgPath)
	if len(data) == 0 {
		return nil // factless dependency
	}
	var in []wireFact
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("facts: decoding facts of %s: %v", pkgPath, err)
	}
	for _, wf := range in {
		t, ok := s.factTypes[wf.Type]
		if !ok {
			return fmt.Errorf("facts: %s exports unregistered fact type %s", pkgPath, wf.Type)
		}
		f := reflect.New(t.Elem()).Interface().(lint.Fact)
		if err := json.Unmarshal(wf.Data, f); err != nil {
			return fmt.Errorf("facts: decoding %s fact on %s.%s: %v", wf.Type, pkgPath, wf.Obj, err)
		}
		s.set(key{pkgPath, wf.Obj}, f)
	}
	return nil
}
