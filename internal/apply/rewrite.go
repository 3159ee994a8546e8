package apply

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"os"
	"sort"
	"strconv"

	"chameleon/internal/atomicfile"
)

// The rewriter is a byte-splice engine, not an AST printer: each rewrite
// touches only the callee name and (at most) one capacity argument, so
// editing the original bytes in place preserves every comment, line
// break, and formatting choice around the call. The spliced file is then
// passed through format.Source, which is a no-op on already-gofmt'd
// input — output is gofmt-stable by construction.

// edit replaces src[start:end) with text. Edits within a file must not
// overlap.
type edit struct {
	start, end int
	text       string
}

// rewriteFiles groups the rewrite decisions by file and computes each
// file's rewritten contents.
func rewriteFiles(decisions []SiteDecision) ([]FileRewrite, error) {
	byFile := map[string][]*SiteDecision{}
	var paths []string
	for i := range decisions {
		d := &decisions[i]
		if !d.Status.Rewrites() {
			continue
		}
		if _, ok := byFile[d.Site.File]; !ok {
			paths = append(paths, d.Site.File)
		}
		byFile[d.Site.File] = append(byFile[d.Site.File], d)
	}
	sort.Strings(paths)

	var files []FileRewrite
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("rewrite: %v", err)
		}
		var edits []edit
		for _, d := range byFile[path] {
			es, err := siteEdits(d, len(src))
			if err != nil {
				return nil, fmt.Errorf("rewrite %s: %v", d.Site.ID, err)
			}
			edits = append(edits, es...)
		}
		out, err := applyEdits(src, edits)
		if err != nil {
			return nil, fmt.Errorf("rewrite %s: %v", path, err)
		}
		formatted, err := format.Source(out)
		if err != nil {
			// A formatting failure means the splice produced invalid
			// Go — never ship it.
			return nil, fmt.Errorf("rewrite %s: spliced source does not parse: %v", path, err)
		}
		files = append(files, FileRewrite{Path: path, Original: src, Rewritten: formatted})
	}
	return files, nil
}

// siteEdits computes the byte edits for one rewrite decision: the callee
// rename (StatusReplace) and the capacity update, when the decision
// carries one.
func siteEdits(d *SiteDecision, srcLen int) ([]edit, error) {
	info := d.Info
	fset := info.Pkg.Fset
	call := info.Call
	off := func(p token.Pos) int { return fset.Position(p).Offset }

	nameID, qual := calleeName(call)
	if nameID == nil {
		return nil, fmt.Errorf("cannot locate the constructor name in the call expression")
	}
	var edits []edit
	if d.Status == StatusReplace {
		edits = append(edits, edit{off(nameID.Pos()), off(nameID.End()), d.Constructor})
	}
	if d.Capacity > 0 {
		capText := qual + "Cap(" + strconv.Itoa(d.Capacity) + ")"
		if len(info.CapArgs) > 0 {
			arg := info.CapArgs[0]
			edits = append(edits, edit{off(arg.Pos()), off(arg.End()), capText})
		} else {
			// Insert after the last argument (never before Rparen: a
			// multi-line call's trailing comma sits between them).
			last := call.Args[len(call.Args)-1]
			p := off(last.End())
			edits = append(edits, edit{p, p, ", " + capText})
		}
	}
	for _, e := range edits {
		if e.start < 0 || e.end > srcLen || e.start > e.end {
			return nil, fmt.Errorf("edit range [%d,%d) outside file", e.start, e.end)
		}
	}
	return edits, nil
}

// calleeName resolves the identifier spelling the constructor's name in
// source, and the package-qualifier text (including the trailing dot)
// new option arguments should use — "collections." for
// collections.NewArrayList[int], "" for a dot-imported or local name.
func calleeName(call *ast.CallExpr) (*ast.Ident, string) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f, ""
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			return f.Sel, pkg.Name + "."
		}
		return f.Sel, ""
	}
	return nil, ""
}

// applyEdits splices the edits into src, rejecting overlaps.
func applyEdits(src []byte, edits []edit) ([]byte, error) {
	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	for i := 1; i < len(edits); i++ {
		if edits[i].end > edits[i-1].start {
			return nil, fmt.Errorf("overlapping edits at byte %d", edits[i].end)
		}
	}
	out := append([]byte(nil), src...)
	for _, e := range edits {
		out = append(out[:e.start], append([]byte(e.text), out[e.end:]...)...)
	}
	return out, nil
}

// WriteFiles writes every rewritten file in place through atomicfile.Write,
// like the snapshot and manifest writers: a crash leaves the old file or
// the new one, never a torn hybrid, and the file keeps its permissions.
func WriteFiles(files []FileRewrite) error {
	for _, f := range files {
		if err := atomicfile.Write(f.Path, f.Rewritten); err != nil {
			return err
		}
	}
	return nil
}
