// Package metricsafety enforces the incremental engine's metric-gating
// contract. The scoped re-mine helpers are only sound for metrics that
// declare the matching safety property (metrics.Metric.DeltaSafe for
// insertion deltas, DeleteSafe for deletion-scoped re-mines); calling one
// on an ungated path silently produces wrong top-k results — the worst
// failure mode this codebase has, because the equivalence oracles only
// catch it for the metrics they happen to draw.
//
// Two rules:
//
//  1. A function annotated "grlint:requires DeltaSafe [DeleteSafe]" may
//     only be called under a guard that consults the corresponding flag:
//     an if/switch condition (or an earlier if in the same function, the
//     early-return-guard shape) mentioning an identifier matching the flag
//     name, possibly through one local variable of flag conjunctions
//     (scoped := m.DeltaSafe && m.DeleteSafe; if scoped { ... }).
//     Alternatively the caller itself carries the same grlint:requires
//     annotation, propagating the obligation outward.
//
//  2. Every keyed, non-empty composite literal of a metric-shaped struct
//     (one with bool fields DeltaSafe and DeleteSafe) must set both flags
//     explicitly. A new metric that forgets one gets the zero value, and a
//     wrong false silently degrades every batch to a full re-mine while a
//     wrong true corrupts results — both deserve a conscious decision at
//     the registration site.
//
// The guard check is a lexical dominance heuristic, not a CFG analysis;
// genuinely unguardable-but-sound calls document themselves with
// //grlint:ignore metricsafety <reason>.
package metricsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"grminer/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "metricsafety",
	Doc:  "scoped re-mine helpers must be gated on DeltaSafe/DeleteSafe; metric literals must set both flags",
	Run:  run,
}

// Flags a helper may require.
var knownFlags = []string{"DeltaSafe", "DeleteSafe"}

func run(pass *analysis.Pass) (interface{}, error) {
	required := collectRequired(pass)
	checkCalls(pass, required)
	checkLiterals(pass)
	return nil, nil
}

// collectRequired maps function objects to the safety flags their
// "grlint:requires" annotation names.
func collectRequired(pass *analysis.Pass) map[types.Object][]string {
	required := make(map[types.Object][]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			args, ok := analysis.DirectiveArgs(fd.Doc, "requires")
			if !ok {
				continue
			}
			var flags []string
			for _, a := range strings.Fields(args) {
				okFlag := false
				for _, k := range knownFlags {
					if a == k {
						okFlag = true
					}
				}
				if !okFlag {
					pass.Reportf(fd.Pos(), "grlint:requires names unknown flag %q (known: %s)", a, strings.Join(knownFlags, ", "))
					continue
				}
				flags = append(flags, a)
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil && len(flags) > 0 {
				required[obj] = flags
			}
		}
	}
	return required
}

// checkCalls verifies every call to an annotated helper is dominated by a
// guard on each required flag (or made from an equally-annotated caller).
func checkCalls(pass *analysis.Pass, required map[types.Object][]string) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			callerFlags := map[string]bool{}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				for _, fl := range required[obj] {
					callerFlags[fl] = true
				}
			}
			scope := newGuardScope(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.Callee(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				flags, ok := required[callee]
				if !ok {
					return true
				}
				for _, flag := range flags {
					if callerFlags[flag] || scope.guarded(call.Pos(), flag) {
						continue
					}
					pass.Reportf(call.Pos(),
						"call to %s requires a %s guard: dominate it with a check of the metric's %s flag, annotate the caller // grlint:requires %s, or //grlint:ignore metricsafety <reason>",
						callee.Name(), flag, flag, flag)
				}
				return true
			})
		}
	}
}

// guardScope indexes one function body: which flags each local variable
// carries (one level of assignment indirection) and where flag-consulting
// conditions appear.
type guardScope struct {
	guards []guard
}

type guard struct {
	pos   token.Pos
	flags map[string]bool
}

func newGuardScope(pass *analysis.Pass, body *ast.BlockStmt) *guardScope {
	// Pass 1: local variables assigned from flag expressions, in source
	// order so `scoped := m.DeltaSafe && m.DeleteSafe` feeds `if scoped`.
	varFlags := make(map[string][]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		var rhsFlags []string
		for _, flag := range knownFlags {
			for _, rhs := range as.Rhs {
				if mentions(rhs, flag, varFlags) {
					rhsFlags = append(rhsFlags, flag)
					break
				}
			}
		}
		if len(rhsFlags) == 0 {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				varFlags[id.Name] = append(varFlags[id.Name], rhsFlags...)
			}
		}
		return true
	})
	// Pass 2: conditions that consult a flag.
	gs := &guardScope{}
	ast.Inspect(body, func(n ast.Node) bool {
		var cond ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
		case *ast.SwitchStmt:
			cond = s.Tag
		case *ast.ForStmt:
			cond = s.Cond
		case *ast.CaseClause:
			for _, e := range s.List {
				gs.record(n.Pos(), e, varFlags)
			}
			return true
		}
		if cond != nil {
			gs.record(n.Pos(), cond, varFlags)
		}
		return true
	})
	return gs
}

func (g *guardScope) record(pos token.Pos, cond ast.Expr, varFlags map[string][]string) {
	flags := make(map[string]bool)
	for _, flag := range knownFlags {
		if mentions(cond, flag, varFlags) {
			flags[flag] = true
		}
	}
	if len(flags) > 0 {
		g.guards = append(g.guards, guard{pos: pos, flags: flags})
	}
}

// guarded reports whether some flag-consulting condition starts before the
// call: either the call is inside that statement, or the statement is an
// earlier guard in the same function (the `if !safe { return }` shape).
func (g *guardScope) guarded(call token.Pos, flag string) bool {
	for _, gd := range g.guards {
		if gd.pos <= call && gd.flags[flag] {
			return true
		}
	}
	return false
}

// mentions reports whether the expression references the flag: an
// identifier or selector whose name equals it (in any capitalization, so an
// unexported deltaSafe mirror counts too), or a local variable recorded as
// carrying it.
func mentions(e ast.Expr, flag string, varFlags map[string][]string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		var name string
		switch x := n.(type) {
		case *ast.Ident:
			name = x.Name
		default:
			return true
		}
		if strings.EqualFold(name, flag) {
			found = true
			return false
		}
		for _, fl := range varFlags[name] {
			if fl == flag {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkLiterals flags keyed metric-struct literals that leave DeltaSafe or
// DeleteSafe implicit.
func checkLiterals(pass *analysis.Pass) {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok {
			return true
		}
		st, ok := types.Unalias(tv.Type).Underlying().(*types.Struct)
		if !ok || !metricShaped(st) {
			return true
		}
		have := make(map[string]bool)
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				// Unkeyed literals must be complete, so both flags are set
				// positionally — explicit enough.
				return true
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				have[id.Name] = true
			}
		}
		var missing []string
		for _, flag := range knownFlags {
			if !have[flag] {
				missing = append(missing, flag)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(lit.Pos(),
				"metric literal must set DeltaSafe and DeleteSafe explicitly (missing %s): an implicit false here silently changes the incremental engine's re-mine strategy",
				strings.Join(missing, ", "))
		}
		return true
	})
}

// metricShaped reports whether the struct has bool fields named DeltaSafe
// and DeleteSafe (the metrics.Metric shape, matched structurally so the
// analyzer needs no import of the engine).
func metricShaped(st *types.Struct) bool {
	found := 0
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if (f.Name() == "DeltaSafe" || f.Name() == "DeleteSafe") &&
			types.Identical(f.Type(), types.Typ[types.Bool]) {
			found++
		}
	}
	return found == 2
}
