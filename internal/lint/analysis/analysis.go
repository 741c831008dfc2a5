// Package analysis is a stdlib-only skeleton of the golang.org/x/tools
// go/analysis API: an Analyzer inspects one type-checked package through a
// Pass and reports position-tagged Diagnostics. The repo's container builds
// hermetically (no module downloads), so grlint carries this ~300-line
// subset instead of depending on x/tools; the Analyzer/Pass surface is kept
// shape-compatible so the analyzers could be ported to the real framework
// by swapping the import.
//
// Two conventions are framework-level and shared by every analyzer:
//
//   - Annotations: a comment line of the form "grlint:<directive> [args]"
//     (with or without a space after //) attached to a declaration opts it
//     into an analyzer's contract, e.g. "grlint:wire v2" on a wire struct.
//
//   - Suppressions: "//grlint:ignore <analyzer> <reason>" on the flagged
//     line or the line above silences that analyzer there. The reason is
//     mandatory — a suppression without one is itself reported (by the
//     grlint driver), so every escape hatch documents why it is sound.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Run inspects the Pass's package and reports
// findings through pass.Report; the return value is unused (kept for shape
// compatibility with x/tools).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ModulePath is the module being analyzed ("" when unknown); analyzers
	// use it to tell module-local types from dependencies.
	ModulePath string
	// Dir is the package directory on disk ("" for synthetic packages).
	Dir string

	// Report delivers one diagnostic. The driver installs it; Reportf and
	// suppression filtering funnel through it.
	Report func(Diagnostic)

	ignores ignoreIndex
}

// Reportf reports a formatted diagnostic unless an //grlint:ignore for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.Suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether pos is covered by an //grlint:ignore comment
// for this analyzer (same line or the line immediately above).
func (p *Pass) Suppressed(pos token.Pos) bool {
	if p.ignores == nil {
		p.ignores = buildIgnoreIndex(p.Fset, p.Files)
	}
	posn := p.Fset.Position(pos)
	names := p.ignores[posn.Filename]
	return names[posn.Line] == p.Analyzer.Name || names[posn.Line-1] == p.Analyzer.Name
}

// ignoreIndex maps filename → line → analyzer name silenced on that line.
type ignoreIndex map[string]map[int]string

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := make(ignoreIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, _, ok := ParseIgnore(c.Text)
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				m := idx[posn.Filename]
				if m == nil {
					m = make(map[int]string)
					idx[posn.Filename] = m
				}
				m[posn.Line] = name
			}
		}
	}
	return idx
}

// ParseIgnore decodes an "//grlint:ignore <analyzer> <reason>" comment. It
// returns ok=false for non-ignore comments; an ignore with a missing reason
// returns the name with reason "" (the driver rejects those).
func ParseIgnore(comment string) (analyzer, reason string, ok bool) {
	body, found := Directive(comment)
	if !found || !strings.HasPrefix(body, "ignore") {
		return "", "", false
	}
	fields := strings.Fields(strings.TrimPrefix(body, "ignore"))
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// Directive extracts the body of a "grlint:" comment line: Directive("//
// grlint:wire v2") = ("wire v2", true). Both "//grlint:x" and "// grlint:x"
// spellings are accepted.
func Directive(comment string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "grlint:") {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, "grlint:")), true
}

// HasDirective reports whether any comment in the group carries the given
// grlint directive (exact match on the first word, e.g. "wire").
func HasDirective(cg *ast.CommentGroup, directive string) bool {
	_, ok := DirectiveArgs(cg, directive)
	return ok
}

// DirectiveArgs returns the arguments of the first "grlint:<directive>"
// comment in the group: DirectiveArgs("// grlint:wire v2", "wire") = "v2".
func DirectiveArgs(cg *ast.CommentGroup, directive string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		body, ok := Directive(c.Text)
		if !ok {
			continue
		}
		fields := strings.Fields(body)
		if len(fields) > 0 && fields[0] == directive {
			return strings.Join(fields[1:], " "), true
		}
	}
	return "", false
}

// FileHasDirective reports whether the file carries a standalone
// "grlint:<directive>" comment anywhere (used for file-level allowlists
// such as deadedge's "grlint:edge-accessors"; convention places it next to
// the package clause).
func FileHasDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		if HasDirective(cg, directive) {
			return true
		}
	}
	return false
}

// WithStack walks every file, invoking fn with the node and the stack of
// ancestors (stack[0] is the *ast.File, stack[len-1] the node itself).
// Returning false prunes the subtree.
func WithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// EnclosingFunc returns the innermost function declaration or literal in
// the stack, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// Callee resolves the called object of a call expression via the package's
// Uses map (nil for indirect calls, conversions, and builtins).
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsPkgFunc reports whether obj is a function (or method) belonging to the
// package with the given import path.
func IsPkgFunc(obj types.Object, pkgPath string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// NamedOf unwraps pointers and aliases and returns the *types.Named behind
// t, or nil.
func NamedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}
