package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathMarker tags a function as part of the simulation hot path.
const hotpathMarker = "//perf:hotpath"

// HotPath flags heap-allocating constructs inside functions whose doc
// comment carries a //perf:hotpath marker.  The engine's steady-state
// cycle loop is required to run allocation-free (DESIGN.md §10): every
// malloc on that path is GC pressure multiplied by cycles × slots ×
// experiment cells, and the allocation gates (TestHotPathAllocFree,
// TestReplicaResetAllocFree) only stay meaningful if new allocations
// cannot slip in silently.
//
// Inside a marked function the analyzer flags:
//
//   - make and new calls;
//   - append calls — growth allocates, and whether a given append grows
//     is invisible statically, so preallocate and index instead;
//   - composite literals of map, slice or pointer-escaping form
//     (&T{...}); plain struct values (trace.Event{...}) stay on the
//     stack and are not flagged;
//   - function literals, go statements and defer statements, which
//     allocate closures or stack frames;
//   - string concatenation and string(...) conversions of byte slices;
//   - calls into fmt, whose interface arguments escape.
//
// The check is intraprocedural: callees are trusted unless they carry
// their own marker.  A construct that is provably cold (an error path,
// a once-per-run warm-up) is suppressed with
// `//lint:allow hotpath <reason>` on the offending line.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flags allocations in functions marked //perf:hotpath",
	Run:  runHotPath,
}

func runHotPath(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			checkHotPathBody(p, fn)
		}
	}
	return nil
}

// isHotPath reports whether the function's doc comment carries the
// //perf:hotpath marker.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

// checkHotPathBody walks one marked function and reports every
// allocation-implying construct.
func checkHotPathBody(p *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			reportHotPathCall(p, name, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.Reportf(n.Pos(),
						"%s is marked //perf:hotpath but &composite literal allocates", name)
				}
			}
		case *ast.CompositeLit:
			if t := p.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					p.Reportf(n.Pos(),
						"%s is marked //perf:hotpath but %s literal allocates",
						name, kindName(t))
				}
			}
		case *ast.FuncLit:
			p.Reportf(n.Pos(),
				"%s is marked //perf:hotpath but a function literal allocates its closure", name)
			return false
		case *ast.GoStmt:
			p.Reportf(n.Pos(),
				"%s is marked //perf:hotpath but go statements allocate", name)
		case *ast.DeferStmt:
			p.Reportf(n.Pos(),
				"%s is marked //perf:hotpath but defer allocates its frame", name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(p.TypesInfo.TypeOf(n)) {
				p.Reportf(n.Pos(),
					"%s is marked //perf:hotpath but string concatenation allocates", name)
			}
		}
		return true
	})
}

// reportHotPathCall flags the allocating calls: make, new, append,
// string(bytes) conversions, and fmt.*.
func reportHotPathCall(p *Pass, name string, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := p.TypesInfo.Uses[fun]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch fun.Name {
				case "make", "new":
					p.Reportf(call.Pos(),
						"%s is marked //perf:hotpath but %s allocates", name, fun.Name)
				case "append":
					p.Reportf(call.Pos(),
						"%s is marked //perf:hotpath but append may grow and allocate; preallocate and index", name)
				}
				return
			}
		}
		// string(b) conversion of a byte slice: allocates a copy.
		if tv, ok := p.TypesInfo.Types[fun]; ok && tv.IsType() && isString(tv.Type) {
			if len(call.Args) == 1 && !isString(p.TypesInfo.TypeOf(call.Args[0])) {
				p.Reportf(call.Pos(),
					"%s is marked //perf:hotpath but string conversion allocates", name)
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, isPkg := p.TypesInfo.Uses[id].(*types.PkgName); isPkg &&
				pkg.Imported().Path() == "fmt" {
				p.Reportf(call.Pos(),
					"%s is marked //perf:hotpath but fmt.%s allocates via interface arguments",
					name, fun.Sel.Name)
			}
		}
	}
}

// kindName names the underlying allocation kind of t for diagnostics.
func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return "composite"
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
