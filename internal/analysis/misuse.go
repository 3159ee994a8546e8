package analysis

import (
	"go/ast"
	"go/types"
)

// Wrapper misuse (S003): type assertions and type-switch cases that
// target a concrete chameleon wrapper type. Such code reaches back
// through the abstraction — it can only work if the interface really
// holds that wrapper — and breaks the moment a site is specialized to a
// different representation. Unlike the escape pass this one scans the
// whole package, not just discovered sites: the assert may live far from
// any allocation.

// checkMisuse reports every assertion on a concrete wrapper type in the
// package.
func checkMisuse(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // x.(type) inside a type switch; cases handled below
				}
				if name := assertedWrapper(info, n.Type); name != "" {
					pass.Reportf(n.Lparen, CodeAssert,
						"type assertion targets concrete wrapper %s: reaches through the collection abstraction and breaks under specialization", name)
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, texpr := range cc.List {
						if name := assertedWrapper(info, texpr); name != "" {
							pass.Reportf(texpr.Pos(), CodeAssert,
								"type switch case targets concrete wrapper %s: reaches through the collection abstraction and breaks under specialization", name)
						}
					}
				}
			}
			return true
		})
	}
}

// assertedWrapper reports the wrapper name a type expression denotes, or
// "" when it is not a chameleon wrapper type.
func assertedWrapper(info *types.Info, texpr ast.Expr) string {
	tv, ok := info.Types[texpr]
	if !ok || !tv.IsType() {
		return ""
	}
	name, ok := wrapperTypeName(tv.Type)
	if !ok {
		return ""
	}
	return name
}
