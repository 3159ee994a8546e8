package analysis

import (
	"go/ast"
	"go/types"
)

// Escape classification: per discovered site, prove or refute that the
// wrapper value stays confined to its allocating function with its
// representation unobserved. The analysis is an SSA-lite intraprocedural
// reachability over the AST: the constructor result either sinks
// directly into an escaping position, or binds a local variable whose
// every use is then classified. Anything not provably safe is a
// refutation — the same conservatism as rules.Vet, in the other
// direction: Vet stays silent unless a defect is provable, escape stays
// loud unless confinement is provable.
//
// Refutations:
//
//	S001 — the value leaves the function (return, struct/global/composite
//	       store, alias, argument, closure capture, method value)
//	S002 — the value is stored into an interface or `any`
//	S004 — the value crosses a goroutine boundary (go statement, channel
//	       send)
//	S005 — wrapper identity is observed (== / != against non-nil, map key)

// checkEscape classifies one site, recording its refutations and
// clearing Safe when any escape-class one holds.
func checkEscape(pass *Pass, site *Site) {
	e := &escaper{pass: pass, site: site}
	e.classify()
	for _, f := range site.Findings {
		if f.Code == CodeEscapes || f.Code == CodeInterface ||
			f.Code == CodeGoroutine || f.Code == CodeIdentity {
			site.Safe = false
		}
	}
}

// escaper classifies one site.
type escaper struct {
	pass    *Pass
	site    *Site
	parents map[ast.Node]ast.Node
	seen    map[string]bool // codes already recorded for this site
}

// refute records one refutation finding against the site (first
// offending use per code wins). The diagnostic anchors at the
// allocation site — the verdict is about the site — with the offending
// use as the related position; the manifest finding records the use
// position directly.
func (e *escaper) refute(at ast.Node, code, message string) {
	if e.seen == nil {
		e.seen = map[string]bool{}
	}
	if e.seen[code] {
		return
	}
	e.seen[code] = true
	use := e.pass.Position(at.Pos())
	e.site.Findings = append(e.site.Findings, Finding{
		Code:     code,
		Severity: SeverityOf(code),
		Pos:      use,
		Message:  message,
	})
	e.pass.Report(Diagnostic{
		Pos:      Position{File: e.site.File, Line: e.site.Line, Col: e.site.Col},
		Code:     code,
		Severity: SeverityOf(code),
		Message:  message,
		SiteID:   e.site.ID,
		Related:  &use,
	})
}

func (e *escaper) classify() {
	site := e.site
	if site.Body == nil {
		e.refute(site.Call, CodeEscapes,
			"collection allocated at package level: the value escapes every function")
		return
	}
	e.parents = buildParents(site.Body)
	v := e.sinkOf(site.Call)
	if v == nil {
		return // classified directly at the allocation
	}
	// The result binds a local; classify every use.
	ast.Inspect(site.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || e.pass.Pkg.TypesInfo.Uses[id] != v {
			return true
		}
		e.classifyUse(id)
		return true
	})
}

// sinkOf classifies the immediate destination of the constructor result.
// It returns the bound local variable when the result lands in one, or
// nil when the destination itself already decided the verdict.
func (e *escaper) sinkOf(call *ast.CallExpr) *types.Var {
	p := e.parentOf(call)
	switch p := p.(type) {
	case *ast.ExprStmt:
		return nil // result discarded: trivially confined
	case *ast.AssignStmt:
		lhs := assignTarget(p, call)
		return e.classifyStore(call, lhs)
	case *ast.ValueSpec:
		for i, val := range p.Values {
			if ast.Unparen(val) == call && i < len(p.Names) {
				return e.classifyStore(call, p.Names[i])
			}
		}
		e.refute(call, CodeEscapes, "allocation flows into an unanalyzed declaration")
		return nil
	case *ast.ReturnStmt:
		e.refute(call, CodeEscapes, "collection is returned from its allocating function")
		return nil
	case *ast.CallExpr:
		e.classifyCallArg(call, p)
		return nil
	case *ast.CompositeLit, *ast.KeyValueExpr:
		e.refute(call, CodeEscapes, "collection is stored into a composite literal")
		return nil
	case *ast.BinaryExpr:
		if p.Op.String() == "==" || p.Op.String() == "!=" {
			e.refute(p, CodeIdentity, "wrapper identity is compared with "+p.Op.String())
			return nil
		}
		e.refute(call, CodeEscapes, "allocation flows into an unanalyzed expression")
		return nil
	case *ast.SendStmt:
		e.refute(p, CodeGoroutine, "collection is sent on a channel")
		return nil
	case *ast.SelectorExpr:
		// Immediate method call on the fresh value: NewX(rt).Size().
		if gp, ok := e.parentOf(p).(*ast.CallExpr); ok && ast.Unparen(gp.Fun) == p {
			return nil
		}
		e.refute(call, CodeEscapes, "method value taken of a fresh allocation")
		return nil
	default:
		e.refute(call, CodeEscapes, "allocation flows into an unanalyzed construct")
		return nil
	}
}

// classifyStore handles the result (or a tracked variable) being
// assigned to lhs. It returns the destination variable to keep tracking
// (a plain local), or nil after recording the verdict.
func (e *escaper) classifyStore(at ast.Node, lhs ast.Expr) *types.Var {
	info := e.pass.Pkg.TypesInfo
	if lhs == nil {
		e.refute(at, CodeEscapes, "allocation flows into an unanalyzed assignment")
		return nil
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			e.refute(at, CodeEscapes, "allocation flows into an unanalyzed assignment")
			return nil
		}
		if v.Parent() == nil || v.Parent() == e.pass.Pkg.Types.Scope() {
			e.refute(at, CodeEscapes, "collection is stored into a package-level variable")
			return nil
		}
		if types.IsInterface(v.Type()) {
			e.refute(at, CodeInterface,
				"collection is stored into "+shortType(v.Type())+": the wrapper type escapes into dynamic dispatch")
			return nil
		}
		return v
	}
	// Field, index, or dereference store.
	if tv, ok := info.Types[lhs]; ok && types.IsInterface(tv.Type) {
		e.refute(at, CodeInterface,
			"collection is stored into "+shortType(tv.Type)+": the wrapper type escapes into dynamic dispatch")
		return nil
	}
	e.refute(at, CodeEscapes, "collection is stored outside the allocating function's locals")
	return nil
}

// classifyCallArg handles the value being passed as an argument of call
// outer (which is not a method call on the value itself).
func (e *escaper) classifyCallArg(val ast.Expr, outer *ast.CallExpr) {
	info := e.pass.Pkg.TypesInfo
	// A conversion to an interface type is an interface store.
	if tv, ok := info.Types[outer.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			e.refute(outer, CodeInterface, "collection is converted to "+shortType(tv.Type))
		} else {
			e.refute(outer, CodeEscapes, "collection is converted to another type")
		}
		return
	}
	if _, ok := e.parentOf(outer).(*ast.GoStmt); ok {
		e.refute(outer, CodeGoroutine, "collection is handed to a goroutine")
		return
	}
	// Interface parameter? Still an escape either way; prefer the more
	// specific verdict when the argument lands in an interface.
	if sig := callSignature(info, outer); sig != nil {
		if i := argIndex(outer, val); i >= 0 {
			if pt := paramTypeAt(sig, i); pt != nil && types.IsInterface(pt) {
				e.refute(outer, CodeInterface,
					"collection is passed as "+shortType(pt)+": the wrapper type escapes into dynamic dispatch")
				return
			}
		}
	}
	e.refute(outer, CodeEscapes, "collection is passed to another function")
}

// classifyUse classifies one use of the tracked variable.
func (e *escaper) classifyUse(id *ast.Ident) {
	info := e.pass.Pkg.TypesInfo
	// Closure capture: a use inside a nested function literal leaves the
	// allocating frame; if the literal feeds a go statement the value
	// crosses a goroutine boundary.
	if lit := e.enclosingFuncLit(id); lit != nil {
		if call, ok := e.parentOf(lit).(*ast.CallExpr); ok {
			if _, ok := e.parentOf(call).(*ast.GoStmt); ok {
				e.refute(id, CodeGoroutine, "collection is captured by a goroutine's closure")
				return
			}
		}
		e.refute(id, CodeEscapes, "collection is captured by a closure")
		return
	}
	p := e.parentOf(id)
	switch p := p.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return // x is the field/method name, not our value
		}
		if call, ok := e.parentOf(p).(*ast.CallExpr); ok && ast.Unparen(call.Fun) == p {
			return // method call on the wrapper: the abstract surface, safe
		}
		e.refute(id, CodeEscapes, "method value taken of the collection")
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if ast.Unparen(l) == id {
				return // reassignment of the variable itself
			}
		}
		e.classifyStore(id, assignTarget(p, id))
	case *ast.ValueSpec:
		for i, val := range p.Values {
			if ast.Unparen(val) == id && i < len(p.Names) {
				e.classifyStore(id, p.Names[i])
				return
			}
		}
	case *ast.ReturnStmt:
		e.refute(id, CodeEscapes, "collection is returned from its allocating function")
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == id {
			return // calling a variable that shadows? not our wrapper
		}
		e.classifyCallArg(id, p)
	case *ast.BinaryExpr:
		if p.Op.String() == "==" || p.Op.String() == "!=" {
			other := p.X
			if ast.Unparen(other) == id {
				other = p.Y
			}
			if !isNil(info, other) {
				e.refute(p, CodeIdentity, "wrapper identity is compared with "+p.Op.String())
			}
			return
		}
		e.refute(id, CodeEscapes, "collection flows into an unanalyzed expression")
	case *ast.IndexExpr:
		if p.Index == id {
			if tv, ok := info.Types[p.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					e.refute(p, CodeIdentity, "wrapper is used as a map key: identity-dependent")
					return
				}
			}
		}
		e.refute(id, CodeEscapes, "collection flows into an unanalyzed expression")
	case *ast.SendStmt:
		if p.Value == id {
			e.refute(p, CodeGoroutine, "collection is sent on a channel")
			return
		}
	case *ast.UnaryExpr:
		e.refute(id, CodeEscapes, "address of the collection variable is taken")
	case *ast.CompositeLit, *ast.KeyValueExpr:
		e.refute(id, CodeEscapes, "collection is stored into a composite literal")
	case *ast.ExprStmt, *ast.RangeStmt:
		// Bare evaluation or range statement bookkeeping: no flow.
	case *ast.TypeSwitchStmt, *ast.TypeAssertExpr:
		// The variable is concrete; asserts on it do not type-check. The
		// misuse pass handles asserts on interfaces holding wrappers.
	default:
		e.refute(id, CodeEscapes, "collection flows into an unanalyzed construct")
	}
}

// enclosingFuncLit reports the innermost function literal strictly
// between n and the site's body, or nil.
func (e *escaper) enclosingFuncLit(n ast.Node) *ast.FuncLit {
	for cur := e.parents[n]; cur != nil; cur = e.parents[cur] {
		if lit, ok := cur.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// parentOf reports n's parent, skipping parentheses.
func (e *escaper) parentOf(n ast.Node) ast.Node {
	p := e.parents[n]
	for {
		paren, ok := p.(*ast.ParenExpr)
		if !ok {
			return p
		}
		p = e.parents[paren]
	}
}

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// assignTarget reports the LHS expression corresponding to rhs in an
// assignment, or nil when the shapes do not line up (tuple assignment
// from a call, which constructors never produce).
func assignTarget(a *ast.AssignStmt, rhs ast.Expr) ast.Expr {
	for i, r := range a.Rhs {
		if ast.Unparen(r) == ast.Unparen(rhs) && i < len(a.Lhs) && len(a.Lhs) == len(a.Rhs) {
			return a.Lhs[i]
		}
	}
	return nil
}

// callSignature reports the signature of the function a call invokes,
// when resolvable.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// argIndex reports which argument of call val is, or -1.
func argIndex(call *ast.CallExpr, val ast.Expr) int {
	for i, a := range call.Args {
		if ast.Unparen(a) == ast.Unparen(val) {
			return i
		}
	}
	return -1
}

// paramTypeAt reports the parameter type an argument at index i binds,
// honoring variadics.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if i < params.Len()-1 || !sig.Variadic() {
		if i >= params.Len() {
			return nil
		}
		return params.At(i).Type()
	}
	// Variadic tail.
	last := params.At(params.Len() - 1).Type()
	if s, ok := last.(*types.Slice); ok {
		return s.Elem()
	}
	return last
}

// isNil reports whether an expression is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
