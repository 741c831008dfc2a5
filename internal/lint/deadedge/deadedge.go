// Package deadedge enforces tombstone-aware edge iteration. Since the
// fully-dynamic engine landed, Graph.NumEdges/Store.NumRows bound the edge
// *id space* — deleted edges stay as tombstoned rows until compaction — so
// a loop over that range that never consults EdgeAlive/Alive silently
// processes retracted edges (and a loop bounded by Store.NumEdges, the
// *live* count, additionally misses tail rows once anything is dead).
// Code written before deletions existed is exactly the code that gets this
// wrong, which is why the check is mechanical.
//
// Flagged: any for/range loop whose bound is a NumEdges/NumRows call on a
// graph.Graph or store.Store (matched by type name, so fixtures and future
// stores participate) whose body contains no EdgeAlive/Alive call.
//
// Not flagged: loops that check liveness; iteration through the live
// accessors (Store.AllEdges, the postings bitmaps of Store.Postings);
// files that implement those accessors, marked with a file-level
// "grlint:edge-accessors" comment; and lines carrying
// //grlint:ignore deadedge <reason> (e.g. code that provably runs before
// any deletion).
package deadedge

import (
	"go/ast"
	"go/types"

	"grminer/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadedge",
	Doc:  "edge-id loops must skip tombstones via EdgeAlive/Alive or use live accessors",
	Run:  run,
}

// boundMethods are the edge-id-space bounds; aliveMethods satisfy the loop.
var (
	boundMethods = map[string]bool{"NumEdges": true, "NumRows": true}
	aliveMethods = map[string]bool{"EdgeAlive": true, "Alive": true}
	ownerTypes   = map[string]bool{"Graph": true, "Store": true}
)

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if analysis.FileHasDirective(f, "edge-accessors") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var bound *ast.CallExpr
			var body *ast.BlockStmt
			switch s := n.(type) {
			case *ast.ForStmt:
				bound = boundCallOf(pass, s.Cond)
				body = s.Body
			case *ast.RangeStmt:
				// Go 1.22 integer range: for e := range g.NumEdges().
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					bound = edgeBoundCall(pass, call)
				}
				body = s.Body
			default:
				return true
			}
			if bound == nil {
				return true
			}
			if callsAlive(pass, body) {
				return true
			}
			recv, method := callParts(bound)
			pass.Reportf(n.Pos(),
				"loop over %s.%s() iterates tombstoned edges: check %s inside, use a live accessor (AllEdges, Postings bitmaps), or mark an accessor file with grlint:edge-accessors",
				recv, method, aliveNameFor(method))
			return true
		})
	}
	return nil, nil
}

// boundCallOf extracts an edge-bound call from a for-condition like
// `i < g.NumEdges()` or `i <= s.NumRows()-1`.
func boundCallOf(pass *analysis.Pass, cond ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	if cond == nil {
		return nil
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && found == nil {
			if c := edgeBoundCall(pass, call); c != nil {
				found = c
				return false
			}
		}
		return true
	})
	return found
}

// edgeBoundCall reports whether the call is NumEdges/NumRows on a
// Graph/Store-named receiver type.
func edgeBoundCall(pass *analysis.Pass, call *ast.CallExpr) *ast.CallExpr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !boundMethods[sel.Sel.Name] {
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
		if named := analysis.NamedOf(tv.Type); named != nil && ownerTypes[named.Obj().Name()] {
			return call
		}
	}
	return nil
}

// callsAlive reports whether the loop body (including nested calls'
// arguments, but not nested function literals' bodies — a deferred check
// does not guard this iteration) invokes an aliveness accessor.
func callsAlive(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !aliveMethods[sel.Sel.Name] {
			return true
		}
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil {
			if _, isFunc := obj.(*types.Func); isFunc {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func callParts(call *ast.CallExpr) (recv, method string) {
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name, sel.Sel.Name
	}
	return "…", sel.Sel.Name
}

func aliveNameFor(method string) string {
	if method == "NumRows" {
		return "Alive"
	}
	return "EdgeAlive/Alive"
}
