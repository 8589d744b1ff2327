package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Seed-taint dataflow (DESIGN.md §14).  A "seed" is a stream identity:
// the determinism contract derives every random stream from a
// (base, stream, index) coordinate through the splitmix64 finalizer
// chain (runner.CellSeed), because ad-hoc arithmetic — Seed+replica,
// Seed+7, seed*2+1 — silently correlates streams across bases (replica
// r of base S replays replica 0 of base S+r).  PR 8 fixed four
// instances of exactly that bug; this engine makes the class
// mechanically unreachable.
//
// The analysis is a forward value taint over the whole module:
//
//   - Sources: any variable, constant, parameter or struct field named
//     `seed`/`Seed` with an integer (or pointer-to-integer) type, and
//     the results of the blessed derivation helpers (runner.CellSeed,
//     experiment.deriveSeed, coefficient.DeriveSeed, mix64).
//   - Propagation: assignments, conversions, returns, slice append /
//     indexing, and — interprocedurally — call arguments: passing a
//     tainted value into a parameter taints that parameter in the
//     callee, whatever it is named, via a monotone fixpoint over the
//     call graph; functions returning tainted values taint their call
//     sites.
//   - Violation: deriving with arithmetic.  +, -, *, /, ^, << and >>
//     (and their assignment/IncDec forms) on a tainted operand are
//     diagnostics.  %, &, | and &^ are NOT: they project a bounded draw
//     out of a stream (the chaos harness draws `CellSeed(...) % 100`),
//     they do not mint a new stream — and their result is deliberately
//     untainted for the same reason.
//   - Blessing: the splitmix64 core itself must do arithmetic; bodies
//     of functions named CellSeed / DeriveSeed / deriveSeed / mix64 /
//     splitmix64 are exempt, and nothing else is.
//
// Test files are skipped entirely: the seed regression suites pin the
// historical bug shapes on purpose (seed_test.go reconstructs
// Seed+replica to prove the new derivation diverges from it).
type seedTaintIndex struct {
	diags map[*Package][]Diagnostic
}

// seedTaintIndex returns the module's seed-taint result, computing it
// on first use.
func (m *Module) seedTaintIndex() *seedTaintIndex {
	if m.seeds == nil {
		m.seeds = buildSeedTaint(m)
	}
	return m.seeds
}

// blessedSeedFuncs names the derivation helpers whose bodies may do
// seed arithmetic and whose results are themselves seed streams.
var blessedSeedFuncs = map[string]bool{
	"CellSeed":   true,
	"DeriveSeed": true,
	"deriveSeed": true,
	"mix64":      true,
	"splitmix64": true,
}

// taintBannedOps are the stream-deriving operators.
var taintBannedOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.XOR: true, token.SHL: true, token.SHR: true,
}

// taintAssignOps maps compound-assignment tokens to their operator.
var taintAssignOps = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.XOR_ASSIGN: token.XOR, token.SHL_ASSIGN: token.SHL,
	token.SHR_ASSIGN: token.SHR,
	token.REM_ASSIGN: token.REM, token.AND_ASSIGN: token.AND,
	token.OR_ASSIGN: token.OR, token.AND_NOT_ASSIGN: token.AND_NOT,
}

// seedNamed reports whether name is the seed-source spelling.
func seedNamed(name string) bool { return name == "seed" || name == "Seed" }

// integerish accepts integer types and pointers to them (flag values
// like *uint64 carry seeds too).
func integerish(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// intrinsicSeedObj reports whether obj is a seed source by declaration:
// a var, const, param or field named seed/Seed of integer kind.
func intrinsicSeedObj(obj types.Object) bool {
	if obj == nil || !seedNamed(obj.Name()) {
		return false
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
		return integerish(obj.Type())
	}
	return false
}

// taintEngine holds the module-wide fixpoint state.
type taintEngine struct {
	graph *CallGraph
	// taintedParam marks parameters proven tainted by a call site.
	taintedParam map[*types.Var]bool
	// returnsTainted marks functions whose results carry taint.
	returnsTainted map[*types.Func]bool
	changed        bool
}

// buildSeedTaint runs the fixpoint and the reporting pass.
func buildSeedTaint(m *Module) *seedTaintIndex {
	e := &taintEngine{
		graph:          m.Graph(),
		taintedParam:   make(map[*types.Var]bool),
		returnsTainted: make(map[*types.Func]bool),
	}
	// Monotone summaries over finitely many params/functions: the loop
	// terminates; the bound is a safety net, not a tuning knob.
	for iter := 0; iter < 32; iter++ {
		e.changed = false
		for _, fn := range e.graph.Functions() {
			e.scanFunc(e.graph.Node(fn), nil)
		}
		if !e.changed {
			break
		}
	}
	idx := &seedTaintIndex{diags: make(map[*Package][]Diagnostic)}
	for _, fn := range e.graph.Functions() {
		n := e.graph.Node(fn)
		e.scanFunc(n, func(pos token.Pos, msg string) {
			idx.diags[n.Pkg] = append(idx.diags[n.Pkg], Diagnostic{
				Analyzer: "seedtaint",
				Pos:      n.Pkg.Fset.Position(pos),
				Message:  msg,
			})
		})
	}
	return idx
}

// skip reports whether the function is outside the analysis: blessed
// derivation cores and test files.
func (e *taintEngine) skip(n *FuncNode) bool {
	return blessedSeedFuncs[n.Fn.Name()] || inTestFile(n.Pkg.Fset, n.Decl.Pos())
}

// fnReturnsTainted reports whether calling fn yields a tainted value.
func (e *taintEngine) fnReturnsTainted(fn *types.Func) bool {
	return blessedSeedFuncs[fn.Name()] || e.returnsTainted[fn]
}

// scanFunc analyzes one function body: it grows the local tainted-object
// set to a fixpoint, then (propagation) pushes taint through call
// arguments and returns, and (reporting, when report != nil) emits the
// arithmetic diagnostics.
func (e *taintEngine) scanFunc(n *FuncNode, report func(token.Pos, string)) {
	if e.skip(n) {
		return
	}
	info := n.Pkg.Info
	local := make(map[types.Object]bool)

	// Local fixpoint: a pass over the body in source order, repeated
	// until the tainted set stops growing (loops can carry taint
	// backwards relative to source order).
	for pass := 0; pass < 8; pass++ {
		grew := false
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				if e.scanAssign(info, local, s) {
					grew = true
				}
			case *ast.RangeStmt:
				// Ranging a tainted slice taints the value variable.
				if e.exprTainted(info, local, s.X) && s.Value != nil {
					if obj := rangeVarObj(info, s.Value); obj != nil && !local[obj] {
						local[obj] = true
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	// Propagation: call arguments and returns.
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.CallExpr:
			e.propagateCall(info, local, s)
		case *ast.ReturnStmt:
			if e.returnsTainted[n.Fn] {
				return true
			}
			for _, res := range s.Results {
				if e.exprTainted(info, local, res) {
					e.returnsTainted[n.Fn] = true
					e.changed = true
					break
				}
			}
		}
		return true
	})

	if report == nil {
		return
	}
	e.reportArithmetic(info, local, n.Decl.Body, report)
}

// scanAssign taints left-hand sides fed by tainted right-hand sides;
// reports whether the local set grew.
func (e *taintEngine) scanAssign(info *types.Info, local map[types.Object]bool, s *ast.AssignStmt) bool {
	grew := false
	taintLHS := func(lhs ast.Expr) {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := info.Defs[l]
			if obj == nil {
				obj = info.Uses[l]
			}
			if obj != nil && !local[obj] {
				local[obj] = true
				grew = true
			}
		}
		// Field and index writes need no bookkeeping: field reads are
		// judged by the field's own name, and slice taint flows through
		// the slice variable via append.
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			if e.exprTainted(info, local, s.Rhs[i]) {
				taintLHS(lhs)
			}
		}
		return grew
	}
	// Multi-value form: x, y := f() — taint every LHS if f taints.
	if len(s.Rhs) == 1 && e.exprTainted(info, local, s.Rhs[0]) {
		for _, lhs := range s.Lhs {
			taintLHS(lhs)
		}
	}
	return grew
}

// propagateCall pushes taint from arguments into the callee's
// parameters (variadic tail included).
func (e *taintEngine) propagateCall(info *types.Info, local map[types.Object]bool, call *ast.CallExpr) {
	fn := calleeOf(info, call)
	if fn == nil || blessedSeedFuncs[fn.Name()] {
		return
	}
	node := e.graph.Node(fn)
	if node == nil || e.skip(node) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		if !e.exprTainted(info, local, arg) {
			continue
		}
		pi := i
		if pi >= sig.Params().Len() {
			if !sig.Variadic() {
				continue
			}
			pi = sig.Params().Len() - 1
		}
		p := sig.Params().At(pi)
		if !e.taintedParam[p] {
			e.taintedParam[p] = true
			e.changed = true
		}
	}
}

// exprTainted judges one expression against the local and module state.
func (e *taintEngine) exprTainted(info *types.Info, local map[types.Object]bool, x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return false
		}
		if v, ok := obj.(*types.Var); ok && e.taintedParam[v] {
			return true
		}
		return local[obj] || intrinsicSeedObj(obj)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return intrinsicSeedObj(sel.Obj())
		}
		// Qualified package identifier (pkg.Seed).
		return intrinsicSeedObj(info.Uses[x.Sel])
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			// Conversion: taint passes through uint64(seed).
			return e.exprTainted(info, local, x.Args[0])
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
				for _, arg := range x.Args {
					if e.exprTainted(info, local, arg) {
						return true
					}
				}
				return false
			}
		}
		if fn := calleeOf(info, x); fn != nil {
			return e.fnReturnsTainted(fn)
		}
		return false
	case *ast.BinaryExpr:
		if !taintBannedOps[x.Op] && x.Op != token.REM &&
			x.Op != token.AND && x.Op != token.OR && x.Op != token.AND_NOT {
			return false // comparisons, &&, || produce no seed value
		}
		if x.Op == token.REM || x.Op == token.AND || x.Op == token.OR || x.Op == token.AND_NOT {
			// Projection operators launder: seed % span is a bounded
			// draw, not a stream identity.
			return false
		}
		return e.exprTainted(info, local, x.X) || e.exprTainted(info, local, x.Y)
	case *ast.UnaryExpr:
		return e.exprTainted(info, local, x.X)
	case *ast.StarExpr:
		return e.exprTainted(info, local, x.X)
	case *ast.ParenExpr:
		return e.exprTainted(info, local, x.X)
	case *ast.IndexExpr:
		return e.exprTainted(info, local, x.X)
	}
	return false
}

// reportArithmetic emits one diagnostic per outermost tainted
// arithmetic expression (the nested halves of seed*2+1 are one
// derivation, not two findings).
func (e *taintEngine) reportArithmetic(info *types.Info, local map[types.Object]bool, body *ast.BlockStmt, report func(token.Pos, string)) {
	var visit func(nd ast.Node) bool
	visit = func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.BinaryExpr:
			if taintBannedOps[s.Op] &&
				(e.exprTainted(info, local, s.X) || e.exprTainted(info, local, s.Y)) {
				report(s.Pos(), taintMsg(s.Op))
				return false
			}
		case *ast.UnaryExpr:
			if s.Op == token.XOR && e.exprTainted(info, local, s.X) {
				report(s.Pos(), taintMsg(s.Op))
				return false
			}
		case *ast.AssignStmt:
			if op, compound := taintAssignOps[s.Tok]; compound && taintBannedOps[op] {
				for i, lhs := range s.Lhs {
					if e.exprTainted(info, local, lhs) ||
						(i < len(s.Rhs) && e.exprTainted(info, local, s.Rhs[i])) {
						report(s.Pos(), taintMsg(op))
						return false
					}
				}
			}
		case *ast.IncDecStmt:
			if e.exprTainted(info, local, s.X) {
				report(s.Pos(), taintMsg(token.ADD))
				return false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// taintMsg renders the seedtaint diagnostic for operator op.
func taintMsg(op token.Token) string {
	return "arithmetic (" + op.String() + ") on a seed-derived value correlates random streams; " +
		"derive streams through runner.CellSeed (experiment.deriveSeed), never by offset arithmetic"
}
