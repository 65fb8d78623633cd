package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// exportedStringConsts parses the package sources on disk and returns
// every exported string constant, in declaration order.
func exportedStringConsts(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatalf("parsing package sources: %v", err)
	}
	out := make(map[string]string)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !name.IsExported() || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatalf("constant %s: %v", name.Name, err)
						}
						out[name.Name] = v
					}
				}
			}
		}
	}
	return out
}

// TestNameConstantsUnique enforces the registry contract: no two
// exported name constants (metric families, event types, label keys)
// may share a string, or two call sites would silently write into one
// series.
func TestNameConstantsUnique(t *testing.T) {
	consts := exportedStringConsts(t)
	if len(consts) == 0 {
		t.Fatal("no exported string constants found; parser looking at the wrong directory?")
	}
	byValue := make(map[string]string)
	for name, v := range consts {
		if prev, ok := byValue[v]; ok {
			t.Errorf("constants %s and %s both equal %q", prev, name, v)
			continue
		}
		byValue[v] = name
	}
	for name, v := range consts {
		if strings.HasPrefix(name, "M") && !strings.HasPrefix(v, "snap_") {
			t.Errorf("metric constant %s = %q does not use the snap_ family prefix", name, v)
		}
	}
}

// assertAllMethodsCovered fails when v's method set gained a method the
// covered set does not exercise — so every future exported method must
// add a nil-receiver case below.
func assertAllMethodsCovered(t *testing.T, v any, covered map[string]bool) {
	t.Helper()
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !covered[name] {
			t.Errorf("%v method %s has no nil-receiver test; add one here", typ, name)
		}
	}
}

// TestNilObserverSafety checks the package contract that instrumented
// hot paths need no nil conditionals: every exported method works on a
// nil *Observer and hands back usable detached handles.
func TestNilObserverSafety(t *testing.T) {
	var o *Observer
	c := o.Counter(MSendFailures)
	if c == nil {
		t.Fatal("nil Observer returned nil Counter")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("detached counter = %d after Inc, want 1", c.Value())
	}
	g := o.Gauge(MRound)
	if g == nil {
		t.Fatal("nil Observer returned nil Gauge")
	}
	g.Set(4)
	if g.Value() != 4 {
		t.Errorf("detached gauge = %v after Set(4)", g.Value())
	}
	h := o.Histogram(MRoundSeconds, TimeBuckets)
	if h == nil {
		t.Fatal("nil Observer returned nil Histogram")
	}
	h.Observe(0.5)
	if h.Count() != 1 {
		t.Errorf("detached histogram count = %d after one Observe", h.Count())
	}
	o.Emit(0, EvRoundStart, 1, -1, map[string]any{"k": "v"}) // must not panic
	if o.LogEnabled() {
		t.Error("nil Observer reports an enabled log")
	}

	assertAllMethodsCovered(t, o, map[string]bool{
		"Counter": true, "Gauge": true, "Histogram": true, "Emit": true,
		"LogEnabled": true,
	})
}

// TestNilRegistrySafety mirrors the same contract one layer down.
func TestNilRegistrySafety(t *testing.T) {
	var r *Registry
	r.Counter(MJoins).Inc()
	r.Gauge(MMembers).Set(2)
	r.Histogram(MGatherWait, TimeBuckets).Observe(1)
	if got := r.Text(); got != "" {
		t.Errorf("nil registry Text() = %q, want empty", got)
	}
	var b strings.Builder
	r.WriteText(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry WriteText wrote %q", b.String())
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry Snapshot() = %v, want empty", snap)
	}

	assertAllMethodsCovered(t, r, map[string]bool{
		"Counter": true, "Gauge": true, "Histogram": true,
		"Text": true, "WriteText": true, "Snapshot": true,
	})
}

// TestNilEventLogSafety: a nil *EventLog discards without panicking.
func TestNilEventLogSafety(t *testing.T) {
	var l *EventLog
	l.Emit(1, EvRoundEnd, 3, -1, nil)
	if l.Emitted() != 0 || l.Errors() != 0 {
		t.Errorf("nil event log counts = (%d, %d), want (0, 0)", l.Emitted(), l.Errors())
	}
	if l.Enabled() {
		t.Error("nil event log reports enabled")
	}

	assertAllMethodsCovered(t, l, map[string]bool{
		"Emit": true, "Emitted": true, "Errors": true, "Enabled": true,
	})
}
