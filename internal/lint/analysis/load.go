package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path       string
	Dir        string
	Module     string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	IllTyped   bool   // type-checking reported errors
	TypeErrors string // first few errors, for the driver's warning
	XTest      bool   // an external (package foo_test) test package
}

// Loader type-checks packages against compiler export data served by the
// go command's build cache (`go list -export`), so it needs no network, no
// GOPATH layout, and no x/tools: the one external ingredient is the go
// toolchain the container already ships.
type Loader struct {
	Fset *token.FileSet
	// Tests includes in-package _test.go files in each package, and loads
	// external (package foo_test) test packages as separate entries.
	Tests bool
	// Dir is the working directory for go commands (module root or below).
	Dir string
	// BuildTags is a comma-separated build tag list passed to go list.
	BuildTags string

	exports map[string]string // import path → export data file
	modpath string
}

// NewLoader returns a loader rooted at dir (or the process cwd when "").
func NewLoader(dir string) *Loader {
	return &Loader{Fset: token.NewFileSet(), Dir: dir, exports: make(map[string]string)}
}

// listEntry mirrors the subset of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath     string
	Dir            string
	Name           string
	Export         string
	Standard       bool
	GoFiles        []string
	CgoFiles       []string
	TestGoFiles    []string
	XTestGoFiles   []string
	IgnoredGoFiles []string
	Module         *struct{ Path, Dir string }
	Error          *struct{ Err string }
}

func (l *Loader) goList(args ...string) ([]listEntry, error) {
	base := []string{"list", "-e", "-json"}
	if l.BuildTags != "" {
		base = append(base, "-tags", l.BuildTags)
	}
	cmd := exec.Command("go", append(base, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportFor returns the export data file for an import path, consulting the
// cache filled by the initial -deps listing and falling back to a one-off
// `go list -export` (test-only dependencies are not in the -deps closure).
func (l *Loader) exportFor(path string) (string, error) {
	if f, ok := l.exports[path]; ok {
		if f == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	entries, err := l.goList("-export", path)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		l.exports[e.ImportPath] = e.Export
	}
	f := l.exports[path]
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return f, nil
}

// importer returns a types.Importer resolving through export data files.
func (l *Loader) importer() types.Importer {
	return importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := l.exportFor(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load resolves the patterns (e.g. "./...") to module packages and
// type-checks each from source. External test packages that fail to
// type-check (they can depend on test-variant exports the non-test export
// data lacks) are returned with IllTyped set rather than failing the load.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	// One -deps -export pass warms the export cache for every dependency.
	deps, err := l.goList(append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	for _, e := range deps {
		if _, ok := l.exports[e.ImportPath]; !ok || e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
	}

	var pkgs []*Package
	for _, e := range targets {
		if e.Error != nil && len(e.GoFiles) == 0 {
			return nil, fmt.Errorf("%s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Module != nil && l.modpath == "" {
			l.modpath = e.Module.Path
		}
		files := append([]string{}, e.GoFiles...)
		if l.Tests {
			files = append(files, e.TestGoFiles...)
		}
		pkg, err := l.check(e.ImportPath, e.Dir, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", e.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
		if l.Tests && len(e.XTestGoFiles) > 0 {
			xpkg, err := l.check(e.ImportPath+"_test", e.Dir, e.XTestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", e.ImportPath+"_test", err)
			}
			xpkg.XTest = true
			pkgs = append(pkgs, xpkg)
		}
	}
	return pkgs, nil
}

// LoadDir loads a directory of Go files outside the module graph (analyzer
// fixtures, seeded CI violations). Files may import the standard library
// and module packages; _test.go files are included.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []string
	for _, n := range names {
		files = append(files, filepath.Base(n))
	}
	return l.check(filepath.Base(dir), dir, files)
}

// check parses and type-checks one package's files (paths relative to dir).
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	var errs []string
	conf := types.Config{
		Importer: l.importer(),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Module: l.modpath,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}
	if len(errs) > 0 {
		pkg.IllTyped = true
		pkg.TypeErrors = strings.Join(errs, "; ")
	}
	return pkg, nil
}

// NewPass binds an analyzer to a loaded package; report receives the
// analyzer's diagnostics (after suppression filtering).
func NewPass(a *Analyzer, pkg *Package, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		ModulePath: pkg.Module,
		Dir:        pkg.Dir,
		Report:     report,
	}
}
