package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// Site discovery: find every call to a chameleon collection constructor,
// recover its declared kind, options (static label, capacity, forced
// implementation), and the allocation-context label the runtime would
// intern for it — statically, the way internal/alloctx does at run time.

// collectionsPath is the import path of the collections library;
// rootPath is the module root package, which re-exports the common
// constructors. Sites through either are discovered.
const (
	collectionsPath = "chameleon/internal/collections"
	rootPath        = "chameleon"
)

// constructorKinds maps exported constructor names to the kind the
// allocation declares. Built from the spec kind table so new backings
// stay in sync; the two irregular names are patched explicitly.
var constructorKinds = func() map[string]spec.Kind {
	m := map[string]spec.Kind{}
	for _, k := range spec.Kinds() {
		if !k.IsAbstract() && k != spec.KindIntArray {
			m["New"+k.String()] = k
		}
	}
	m["NewIntArrayList"] = spec.KindIntArray
	// NewListFrom inherits the source list's declared kind; statically we
	// only know the ADT.
	m["NewListFrom"] = spec.KindNone
	return m
}()

// findSites discovers the package's allocation sites in source order.
func findSites(pass *Pass) []Site {
	var sites []Site
	for _, file := range pass.Pkg.Syntax {
		w := &siteWalker{pass: pass}
		ast.Walk(w, file)
		sites = append(sites, w.sites...)
	}
	return sites
}

// siteWalker walks one file keeping an explicit node stack so every
// discovered call knows its enclosing function (by runtime-style name).
type siteWalker struct {
	pass  *Pass
	sites []Site

	// stack is the path from the file root to the current node.
	stack []ast.Node
	// funcStack tracks enclosing functions: the runtime-style name and
	// body of each (FuncDecl or FuncLit).
	funcStack []funcFrame
	// litCount numbers function literals per enclosing declaration the
	// way the runtime does (pkg.Func.func1, .func2, ... in source order).
	litCount map[string]int
	// armStack tracks enclosing exclusive branch arms (if/else bodies,
	// switch and select clauses) so duplicate-label detection can tell
	// mutually exclusive variant sites from genuinely colliding ones.
	armStack []armFrame
	// ifChain maps an else-if statement to the root of its if/else-if
	// chain, so every arm of one chain shares a root.
	ifChain map[*ast.IfStmt]token.Pos
}

type funcFrame struct {
	name string
	body *ast.BlockStmt
}

// armFrame is one exclusive arm on the walk path: the node that opened
// it and its "root#arm" discriminator (root = the position of the
// if-chain or switch owning the arm; arm = the arm's own position).
type armFrame struct {
	node ast.Node
	arm  string
}

// Visit implements ast.Visitor; ast.Walk calls it with each node before
// its children and with nil after them.
func (w *siteWalker) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		switch top.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			w.funcStack = w.funcStack[:len(w.funcStack)-1]
		}
		if len(w.armStack) > 0 && w.armStack[len(w.armStack)-1].node == top {
			w.armStack = w.armStack[:len(w.armStack)-1]
		}
		return nil
	}
	w.stack = append(w.stack, n)
	w.trackArm(n)
	switch n := n.(type) {
	case *ast.FuncDecl:
		w.funcStack = append(w.funcStack, funcFrame{name: funcDeclName(w.pass.Pkg, n), body: n.Body})
	case *ast.FuncLit:
		outer := w.pass.Pkg.PkgPath + ".init"
		if len(w.funcStack) > 0 {
			outer = w.funcStack[len(w.funcStack)-1].name
		}
		if w.litCount == nil {
			w.litCount = map[string]int{}
		}
		w.litCount[outer]++
		w.funcStack = append(w.funcStack, funcFrame{
			name: fmt.Sprintf("%s.func%d", outer, w.litCount[outer]),
			body: n.Body,
		})
	case *ast.CallExpr:
		if fn := calleeFunc(w.pass.Pkg.TypesInfo, n); fn != nil && isConstructor(fn) && !w.forwardsOptions(n) {
			w.addSite(n, fn)
		}
	}
	return w
}

// forwardsOptions reports whether call merely re-spreads caller-provided
// options (`return collections.NewX[T](rt, opts...)`): the root
// package's forwarding constructors look like allocation sites but the
// real site — label, capacity, and all — is the caller, which the
// walker records separately. Registering the forwarder too would count
// every wrapper as an opaque-label site.
func (w *siteWalker) forwardsOptions(call *ast.CallExpr) bool {
	if !call.Ellipsis.IsValid() || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[len(call.Args)-1].(*ast.Ident)
	if !ok {
		return false
	}
	slice, ok := w.pass.Pkg.TypesInfo.TypeOf(id).(*types.Slice)
	if !ok {
		return false
	}
	named, ok := types.Unalias(slice.Elem()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != "Option" {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == collectionsPath || p == rootPath
}

// trackArm pushes an arm frame when n opens an exclusive branch arm:
// the then/else body of an if chain, or a case/comm clause of a switch
// or select. Sites allocated under different arms of the same root
// cannot execute in the same pass through the code.
func (w *siteWalker) trackArm(n ast.Node) {
	parent := ast.Node(nil)
	if len(w.stack) >= 2 {
		parent = w.stack[len(w.stack)-2]
	}
	switch n := n.(type) {
	case *ast.IfStmt:
		if p, ok := parent.(*ast.IfStmt); ok && p.Else == n {
			if w.ifChain == nil {
				w.ifChain = map[*ast.IfStmt]token.Pos{}
			}
			w.ifChain[n] = w.chainRoot(p)
		}
	case *ast.BlockStmt:
		if p, ok := parent.(*ast.IfStmt); ok && (p.Body == n || p.Else == n) {
			w.pushArm(n, w.chainRoot(p))
		}
	case *ast.CaseClause, *ast.CommClause:
		if len(w.stack) >= 3 {
			switch sw := w.stack[len(w.stack)-3].(type) {
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				w.pushArm(n, sw.Pos())
			}
		}
	}
}

// chainRoot reports the position identifying stmt's whole if/else-if
// chain: the outermost if of the chain.
func (w *siteWalker) chainRoot(stmt *ast.IfStmt) token.Pos {
	if root, ok := w.ifChain[stmt]; ok {
		return root
	}
	return stmt.Pos()
}

func (w *siteWalker) pushArm(n ast.Node, root token.Pos) {
	rp := w.pass.Position(root)
	ap := w.pass.Position(n.Pos())
	w.armStack = append(w.armStack, armFrame{
		node: n,
		arm:  fmt.Sprintf("%s:%d:%d#%d:%d", rp.File, rp.Line, rp.Col, ap.Line, ap.Col),
	})
}

func (w *siteWalker) addSite(call *ast.CallExpr, fn *types.Func) {
	pass := w.pass
	declared := constructorKinds[fn.Name()]
	pos := pass.Position(call.Lparen)

	funcName := pass.Pkg.PkgPath + ".init" // package-level var initializer
	var body *ast.BlockStmt
	if len(w.funcStack) > 0 {
		top := w.funcStack[len(w.funcStack)-1]
		funcName, body = top.name, top.body
	}

	adt := declared.Abstract()
	if fn.Name() == "NewListFrom" {
		adt = spec.KindList
	}
	site := Site{
		ID:          fmt.Sprintf("%s:%d:%d", pos.File, pos.Line, pos.Col),
		File:        pos.File,
		Line:        pos.Line,
		Col:         pos.Col,
		Pkg:         pass.Pkg.PkgPath,
		Func:        funcName,
		Constructor: fn.Name(),
		ADT:         adt.String(),
		Declared:    declared.String(),
		Safe:        true,
		Call:        call,
		Body:        body,
		Fset:        pass.Pkg.Fset,
	}
	if declared == spec.KindNone {
		site.Declared = spec.KindList.String() // NewListFrom: ADT only
		site.Inherited = true
	}
	if len(w.armStack) > 0 {
		site.Arm = w.armStack[len(w.armStack)-1].arm
	}
	w.resolveOptions(&site)
	if site.Label == "" {
		// No static At label: derive the frame label dynamic capture
		// would symbolize for this site. The key is not derivable (PC
		// hash), so the manifest carries the label only.
		site.Label = alloctx.SiteLabel(funcName, pos.Line)
		site.LabelKind = LabelFrame
	}
	w.sites = append(w.sites, site)
}

// resolveOptions extracts the statically resolvable option arguments of
// a constructor call: At labels, Cap capacities, Impl overrides. One
// level of helper indirection is followed — the workloads conventionally
// wrap At in tiny "func ctx() collections.Option { return At("...") }"
// helpers — by inlining same-package helpers whose body is a single
// return of a direct option call.
func (w *siteWalker) resolveOptions(site *Site) {
	pass := w.pass
	call := site.Call
	if len(call.Args) == 0 {
		return
	}
	for _, arg := range call.Args[1:] { // Args[0] is the *Runtime
		opt, ok := resolveOptionExpr(pass, arg)
		if !ok {
			site.OpaqueOptions = true
			w.lint(site, arg.Pos(), CodeOpaqueLabel,
				"option argument is not statically resolvable; the site cannot be joined to profiles by label")
			continue
		}
		switch opt.name {
		case "At":
			if opt.constVal == nil || opt.constVal.Kind() != constant.String {
				site.OpaqueOptions = true
				w.lint(site, arg.Pos(), CodeOpaqueLabel,
					"At label is not a compile-time constant; the site cannot be joined to profiles by label")
				continue
			}
			label := constant.StringVal(opt.constVal)
			site.Label = label
			site.LabelKind = LabelStatic
			site.ContextKey = alloctx.StaticKey(label)
		case "Cap":
			site.CapArgs = append(site.CapArgs, arg)
			if opt.constVal == nil || opt.constVal.Kind() != constant.Int {
				site.Capacity = -1
				w.lint(site, arg.Pos(), CodeOpaqueCap,
					"Cap argument is not a compile-time constant; manifest records capacity as unknown")
				continue
			}
			if v, exact := constant.Int64Val(opt.constVal); exact {
				site.Capacity = int(v)
			}
		case "Impl":
			site.ImplArgs = append(site.ImplArgs, arg)
			if opt.constVal != nil && opt.constVal.Kind() == constant.Int {
				if v, exact := constant.Int64Val(opt.constVal); exact {
					site.Forced = spec.Kind(v).String()
				}
			}
		case "AdaptAt":
			// Size-adapting threshold: no manifest impact.
		}
	}
}

// lint records a label-hygiene finding both on the site (manifest) and
// as a positioned diagnostic.
func (w *siteWalker) lint(site *Site, pos token.Pos, code, msg string) {
	p := w.pass.Position(pos)
	site.Findings = append(site.Findings, Finding{
		Code: code, Severity: SeverityOf(code), Pos: p, Message: msg,
	})
	w.pass.Report(Diagnostic{
		Pos: p, Code: code, Severity: SeverityOf(code), Message: msg, SiteID: site.ID,
	})
}

// optionValue is one resolved option-constructor application.
type optionValue struct {
	name     string // At, Cap, Impl, AdaptAt
	constVal constant.Value
}

// resolveOptionExpr resolves an option argument expression to the option
// constructor it applies, following one level of same-package helper
// functions. ok is false when the expression cannot be resolved at all
// (an Option value of unknown provenance).
func resolveOptionExpr(pass *Pass, arg ast.Expr) (optionValue, bool) {
	arg = ast.Unparen(arg)
	if id, ok := arg.(*ast.Ident); ok {
		// A local bound exactly once to an option expression:
		// `site := collections.At("...")` reused across allocations.
		def, ok := singleAssignment(pass, id)
		if !ok {
			return optionValue{}, false
		}
		arg = ast.Unparen(def)
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return optionValue{}, false
	}
	fn := calleeFunc(pass.Pkg.TypesInfo, call)
	if fn == nil {
		return optionValue{}, false
	}
	if isOptionConstructor(fn) {
		if len(call.Args) != 1 {
			return optionValue{name: fn.Name()}, true
		}
		tv, ok := pass.Pkg.TypesInfo.Types[call.Args[0]]
		if ok && tv.Value != nil {
			return optionValue{name: fn.Name(), constVal: tv.Value}, true
		}
		return optionValue{name: fn.Name()}, true
	}
	// One level of helper indirection: a same-package function or method
	// whose body is exactly `return <option-constructor>(...)`.
	if fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.PkgPath {
		return optionValue{}, false
	}
	decl := funcDeclOf(pass.Pkg, fn)
	if decl == nil || decl.Body == nil || len(decl.Body.List) != 1 {
		return optionValue{}, false
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return optionValue{}, false
	}
	inner, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok {
		return optionValue{}, false
	}
	innerFn := calleeFunc(pass.Pkg.TypesInfo, inner)
	if innerFn == nil || !isOptionConstructor(innerFn) {
		return optionValue{}, false
	}
	if len(inner.Args) != 1 {
		return optionValue{name: innerFn.Name()}, true
	}
	tv, ok := pass.Pkg.TypesInfo.Types[inner.Args[0]]
	if ok && tv.Value != nil {
		return optionValue{name: innerFn.Name(), constVal: tv.Value}, true
	}
	return optionValue{name: innerFn.Name()}, true
}

// singleAssignment resolves a variable to its defining expression when
// the variable is assigned exactly once in the package (the safe case
// for constant propagation: no reassignment can change what the
// allocation receives).
func singleAssignment(pass *Pass, id *ast.Ident) (ast.Expr, bool) {
	info := pass.Pkg.TypesInfo
	obj, _ := info.ObjectOf(id).(*types.Var)
	if obj == nil {
		return nil, false
	}
	var def ast.Expr
	assigns := 0
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					lid, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || info.ObjectOf(lid) != obj {
						continue
					}
					assigns++
					if len(n.Rhs) == len(n.Lhs) {
						def = n.Rhs[i]
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if info.Defs[name] != obj {
						continue
					}
					assigns++
					if i < len(n.Values) {
						def = n.Values[i]
					}
				}
			case *ast.UnaryExpr:
				// &x: the variable may be written through the pointer;
				// give up on propagation.
				if n.Op == token.AND {
					if uid, ok := ast.Unparen(n.X).(*ast.Ident); ok && info.ObjectOf(uid) == obj {
						assigns += 2
					}
				}
			}
			return true
		})
	}
	if assigns != 1 || def == nil {
		return nil, false
	}
	return def, true
}

// IsLibraryPackage reports whether pkgPath is the collections library
// itself or the root re-export package. Sites inside the library (its
// own tests and examples) are discovery noise for rewriting tools:
// chameleon-apply never touches them.
func IsLibraryPackage(pkgPath string) bool {
	return pkgPath == collectionsPath || pkgPath == rootPath
}

// isConstructor reports whether fn is a chameleon collection constructor.
func isConstructor(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != collectionsPath && p != rootPath {
		return false
	}
	_, ok := constructorKinds[fn.Name()]
	return ok
}

// isOptionConstructor reports whether fn builds an allocation Option
// (At, Cap, Impl, AdaptAt) from the collections package or the root
// re-exports.
func isOptionConstructor(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != collectionsPath && p != rootPath {
		return false
	}
	switch fn.Name() {
	case "At", "Cap", "Impl", "AdaptAt":
		return true
	}
	return false
}

// calleeFunc resolves the function a call expression invokes, unwrapping
// generic instantiations. Returns nil for calls through function values,
// conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcDeclOf finds the declaration of fn in the package's syntax, if fn
// is declared in this package.
func funcDeclOf(pkg *Package, fn *types.Func) *ast.FuncDecl {
	for _, file := range pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pkg.TypesInfo.Defs[decl.Name] == fn {
				return decl
			}
		}
	}
	return nil
}

// funcDeclName renders the runtime-style qualified name of a declared
// function: "pkgpath.Func", "pkgpath.T.Method", or "pkgpath.(*T).Method"
// — the same spelling runtime.Frame.Function reports, so
// alloctx.SiteLabel derives identical labels from either side.
func funcDeclName(pkg *Package, decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkg.PkgPath + "." + decl.Name.Name
	}
	recv := decl.Recv.List[0].Type
	star := false
	if s, ok := recv.(*ast.StarExpr); ok {
		star = true
		recv = s.X
	}
	// Strip type parameters of generic receivers: "T[K]" names as "T".
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return fmt.Sprintf("%s.(*%s).%s", pkg.PkgPath, name, decl.Name.Name)
	}
	return fmt.Sprintf("%s.%s.%s", pkg.PkgPath, name, decl.Name.Name)
}

// wrapperTypeName reports whether t (after unwrapping pointers and
// instantiation) is one of the chameleon wrapper types — List, Set, Map,
// Iterator, ListIterator — and which.
func wrapperTypeName(t types.Type) (string, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	if p := obj.Pkg().Path(); p != collectionsPath && p != rootPath {
		return "", false
	}
	switch obj.Name() {
	case "List", "Set", "Map", "Iterator", "ListIterator":
		return obj.Name(), true
	}
	return "", false
}

// shortType renders a type with package paths trimmed to their last
// element, for readable diagnostics.
func shortType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		parts := strings.Split(p.Path(), "/")
		return parts[len(parts)-1]
	})
}
