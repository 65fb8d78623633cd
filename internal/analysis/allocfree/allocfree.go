// Package allocfree implements the snaplint analyzer that enforces the
// //snap:alloc-free contract: an annotated function must not allocate
// on any hot path, because the engine's per-round cost model (DESIGN.md
// §9) budgets zero steady-state allocations for Step/BuildUpdate and
// everything they call.
//
// Within an annotated body the analyzer flags every allocating
// construct:
//
//   - map and slice composite literals, and address-taken composite
//     literals (&T{...}), which escape;
//   - make and new;
//   - append whose result is not reassigned to its own first argument
//     (the self-append fill idiom `x = append(x, ...)` is the only
//     form that can stay within caller-provided capacity);
//   - closures that capture variables;
//   - string concatenation and allocating conversions (x → string,
//     string → []byte/[]rune, value → interface);
//   - implicit boxing: a non-pointer-shaped, non-constant value passed
//     where an interface is expected;
//   - variadic calls that materialize an argument slice;
//   - go statements.
//
// Calls are checked through Facts: a callee must itself be annotated
// //snap:alloc-free or //snap:allocs-amortized (in this package or any
// dependency — the fact rides the driver), or belong to a small
// safelist of stdlib operations known not to allocate (math, math/bits,
// sync/atomic, mutex methods, byte-order codecs, time.Now/Since,
// strconv.ParseFloat/AppendInt).
// Anything else — including calls through function values, which cannot
// be resolved statically — is a finding, which is what forces the
// annotation to spread over the whole hot call graph.
//
// //snap:allocs-amortized is the escape hatch for warm-up allocators
// (scratch ensure(), codec grow()): the annotation makes the function
// callable from alloc-free code but leaves its body unchecked; the
// runtime AllocsPerRun budgets keep the amortization honest.
//
// Blocks that end by returning or panicking — error paths — are cold by
// construction and are skipped, so `if err != nil { return fmt.Errorf }`
// needs no waiver.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/snapml/snap/internal/analysis/directive"
	"github.com/snapml/snap/internal/analysis/lint"
)

// Fact marks a function or interface method as callable from
// //snap:alloc-free code. Amortized distinguishes the
// //snap:allocs-amortized contract (body unchecked).
type Fact struct {
	Amortized bool `json:"amortized,omitempty"`
}

func (*Fact) AFact() {}

var Analyzer = &lint.Analyzer{
	Name:      "allocfree",
	Doc:       "//snap:alloc-free functions must not allocate and may only call alloc-free callees",
	Run:       run,
	FactTypes: []lint.Fact{new(Fact)},
}

func run(pass *lint.Pass) (any, error) {
	// First pass: export a fact for every annotated function and
	// interface method, so intra-package calls resolve regardless of
	// declaration order.
	annotated := make(map[types.Object]*Fact)
	var checks []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fact := factFor(d.Doc)
				if fact == nil {
					continue
				}
				obj := pass.TypesInfo.Defs[d.Name]
				if obj == nil {
					continue
				}
				annotated[obj] = fact
				export(pass, obj, fact)
				if !fact.Amortized && d.Body != nil {
					checks = append(checks, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok || it.Methods == nil {
						continue
					}
					// An annotation on an interface method is a trusted
					// contract: implementations promise it, callers of the
					// interface rely on it.
					for _, m := range it.Methods.List {
						fact := factFor(m.Doc)
						if fact == nil || len(m.Names) == 0 {
							continue
						}
						obj := pass.TypesInfo.Defs[m.Names[0]]
						if obj == nil {
							continue
						}
						annotated[obj] = fact
						export(pass, obj, fact)
					}
				}
			}
		}
	}

	for _, d := range checks {
		checkBody(pass, d, annotated)
	}
	return nil, nil
}

func export(pass *lint.Pass, obj types.Object, fact *Fact) {
	if pass.ExportObjectFact != nil {
		pass.ExportObjectFact(obj, fact)
	}
}

func factFor(doc *ast.CommentGroup) *Fact {
	if directive.Has(doc, "alloc-free") {
		return &Fact{}
	}
	if directive.Has(doc, "allocs-amortized") {
		return &Fact{Amortized: true}
	}
	return nil
}

func checkBody(pass *lint.Pass, fn *ast.FuncDecl, annotated map[types.Object]*Fact) {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if rn := receiverTypeName(fn.Recv.List[0].Type); rn != "" {
			name = rn + "." + name
		}
	}

	// Self-appends (`x = append(x, ...)`, including `x = append(x[:0],
	// ...)`) are the sanctioned within-capacity fill idiom.
	selfAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || builtinName(pass.TypesInfo, call) != "append" || len(call.Args) == 0 {
			return true
		}
		base := unparen(call.Args[0])
		for {
			se, ok := base.(*ast.SliceExpr)
			if !ok {
				break
			}
			base = unparen(se.X)
		}
		if types.ExprString(unparen(as.Lhs[0])) == types.ExprString(base) {
			selfAppend[call] = true
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			// Cold-path exemption: a block that ends by returning or
			// panicking runs at most once per call — error handling, not
			// the hot loop.
			if n != fn.Body && endsCold(n.List) {
				return false
			}
		case *ast.CaseClause:
			if endsCold(n.Body) {
				return false
			}
		case *ast.CommClause:
			if endsCold(n.Body) {
				return false
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine in alloc-free function %s", name)
		case *ast.FuncLit:
			if capt := capturedVar(pass.TypesInfo, n); capt != "" {
				pass.Reportf(n.Pos(), "closure captures %s in alloc-free function %s", capt, name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.TypeOf(n)) {
				if tv, ok := pass.TypesInfo.Types[n]; !ok || tv.Value == nil { // constant folds are free
					pass.Reportf(n.Pos(), "string concatenation allocates in alloc-free function %s", name)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address-taken composite literal escapes in alloc-free function %s", name)
				}
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in alloc-free function %s", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in alloc-free function %s", name)
			}
		case *ast.CallExpr:
			checkCall(pass, n, name, annotated, selfAppend)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, call *ast.CallExpr, name string, annotated map[types.Object]*Fact, selfAppend map[*ast.CallExpr]bool) {
	info := pass.TypesInfo

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type, name)
		return
	}

	if b := builtinName(info, call); b != "" {
		switch b {
		case "append":
			if !selfAppend[call] {
				pass.Reportf(call.Pos(), "append result is not reassigned to its first argument in alloc-free function %s", name)
			}
		case "make":
			pass.Reportf(call.Pos(), "make allocates in alloc-free function %s", name)
		case "new":
			pass.Reportf(call.Pos(), "new allocates in alloc-free function %s", name)
		case "len", "cap", "copy", "delete", "clear", "close", "min", "max",
			"real", "imag", "complex", "panic", "recover",
			"Sizeof", "Alignof", "Offsetof", "Add", "Slice", "SliceData", "String", "StringData":
			// free
		default:
			pass.Reportf(call.Pos(), "builtin %s is not alloc-free in alloc-free function %s", b, name)
		}
		return
	}

	if _, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return // immediately-invoked literal: its body is walked in place
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		pass.Reportf(call.Pos(), "call through a function value cannot be proven alloc-free in alloc-free function %s", name)
		return
	}
	checkArgs(pass, call, callee, name)

	if annotated[callee] != nil {
		return
	}
	var fact Fact
	if pass.ImportObjectFact != nil && pass.ImportObjectFact(callee, &fact) {
		return
	}
	if safeCallee(callee) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s is not alloc-free (missing //snap:alloc-free) in alloc-free function %s", callee.Name(), name)
}

// checkArgs flags implicit allocations at the call boundary: the
// backing slice of a non-spread variadic call, and boxing a
// non-pointer-shaped value into an interface parameter.
func checkArgs(pass *lint.Pass, call *ast.CallExpr, callee *types.Func, name string) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(), "variadic call to %s allocates its argument slice in alloc-free function %s", callee.Name(), name)
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis != token.NoPos {
				pt = last
			} else if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if boxes(pass.TypesInfo, arg, pt) {
			pass.Reportf(arg.Pos(), "argument boxed into interface %s in alloc-free function %s", pt.String(), name)
		}
	}
}

func checkConversion(pass *lint.Pass, call *ast.CallExpr, target types.Type, name string) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	at := pass.TypesInfo.TypeOf(arg)
	if at == nil {
		return
	}
	switch ut := target.Underlying().(type) {
	case *types.Interface:
		if boxes(pass.TypesInfo, arg, target) {
			pass.Reportf(call.Pos(), "conversion boxes a value into interface %s in alloc-free function %s", target.String(), name)
		}
	case *types.Basic:
		if ut.Kind() == types.String && !isString(at) {
			pass.Reportf(call.Pos(), "conversion to string allocates in alloc-free function %s", name)
		}
	case *types.Slice:
		if isString(at) {
			pass.Reportf(call.Pos(), "conversion from string to %s allocates in alloc-free function %s", target.String(), name)
		}
	}
}

// boxes reports whether passing arg where pt is expected converts a
// concrete value into an interface at runtime. Pointer-shaped values
// (pointers, channels, maps, funcs, unsafe.Pointer) ride in the
// interface word without allocating; constants are interned into
// read-only data by the compiler.
func boxes(info *types.Info, arg ast.Expr, pt types.Type) bool {
	if !types.IsInterface(pt.Underlying()) {
		return false
	}
	if _, isTP := pt.(*types.TypeParam); isTP {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil { // constant, including nil-adjacent untyped values
		return false
	}
	at := tv.Type
	if at == types.Typ[types.UntypedNil] || types.IsInterface(at.Underlying()) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if at.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// safeCallee is the stdlib safelist: operations known not to allocate
// that alloc-free code legitimately needs.
func safeCallee(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error): the dynamic callee is
		// unknowable; error formatting lives on cold paths.
		return true
	}
	sig, _ := f.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic":
		return true
	case "sync":
		return hasRecv // Mutex.Lock, RWMutex.RLock, WaitGroup.Done, ...
	case "encoding/binary":
		// Byte-order methods and the varint family write in place;
		// binary.Read/Write reflect and allocate.
		switch f.Name() {
		case "PutUvarint", "PutVarint", "Uvarint", "Varint", "AppendUvarint", "AppendVarint":
			return true
		}
		return hasRecv
	case "time":
		return f.Name() == "Now" || f.Name() == "Since" || hasRecv
	case "strconv":
		// ParseFloat allocates only the error it returns (a cold path by
		// construction); the Append family fills caller capacity like a
		// self-append. Itoa, Format* and Quote* build strings.
		switch f.Name() {
		case "ParseFloat", "AppendInt", "AppendUint":
			return true
		}
		return false
	case "sort":
		// The pure query helpers; sort.Sort and friends box their
		// arguments into sort.Interface.
		switch f.Name() {
		case "IntsAreSorted", "Float64sAreSorted", "StringsAreSorted",
			"SearchInts", "SearchFloat64s", "SearchStrings", "Search":
			return true
		}
		return false
	}
	return false
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func) // qualified pkg.Func
		return f
	}
	return nil
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel // unsafe.Sizeof and friends
	default:
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// capturedVar returns the name of one variable the closure captures
// from its enclosing function, or "".
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	declared := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || declared[v] || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		name = v.Name()
		return false
	})
	return name
}

func endsCold(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
