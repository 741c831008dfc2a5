// grlint is the project's multichecker: project-specific static analyzers
// that prove the mining engine's cross-cutting invariants on every build
// (see internal/lint/*). It runs four ways:
//
//	go run ./cmd/grlint ./...              # standalone over module packages (incl. in-package tests)
//	go run ./cmd/grlint -dir path/to/pkg   # one bare directory (fixtures, seeded CI violations)
//	go run ./cmd/grlint -update-wire ./... # regenerate internal/rpc/wire_schema.json
//	go vet -vettool=$(go env GOPATH)/bin/grlint ./...  # under the vet driver (covers every test variant and build-tag combination vet builds)
//
// Diagnostics print as "file:line:col: message (analyzer)"; the exit code
// is 1 when any diagnostic fired, 2 on internal error. Suppress a finding
// with "//grlint:ignore <analyzer> <reason>" on its line or the line above
// — the reason is mandatory and checked.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"grminer/internal/lint/analysis"
	"grminer/internal/lint/deadedge"
	"grminer/internal/lint/metricsafety"
	"grminer/internal/lint/wire"
	"grminer/internal/lint/wirecompat"
)

var analyzers = []*analysis.Analyzer{
	metricsafety.Analyzer,
	deadedge.Analyzer,
	wirecompat.Analyzer,
}

func main() {
	var (
		updateWire = flag.Bool("update-wire", false, "regenerate the wire schema snapshot from grlint:wire annotations")
		dir        = flag.String("dir", "", "analyze the Go files of one directory outside the package graph (fixtures)")
		tags       = flag.String("tags", "", "build tags for package loading")
		version    = flag.String("V", "", "print version and exit (go vet driver protocol)")
		printFlags = flag.Bool("flags", false, "print analyzer flags as JSON (go vet driver protocol)")
	)
	flag.Parse()

	if *version != "" {
		printVersion()
		return
	}
	if *printFlags {
		fmt.Println("[]")
		return
	}
	// A lone path/to/unit.cfg argument means the go vet driver is invoking
	// us per compilation unit.
	if args := flag.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	switch {
	case *updateWire:
		if err := regenerateWire(patterns, *tags); err != nil {
			fmt.Fprintln(os.Stderr, "grlint:", err)
			os.Exit(2)
		}
	case *dir != "":
		os.Exit(runDir(*dir))
	default:
		os.Exit(runPatterns(patterns, *tags))
	}
}

// printVersion implements the -V=full handshake the go command uses to
// fingerprint vet tools for caching: name, version, and a content hash of
// the executable so a rebuilt grlint invalidates stale vet results.
func printVersion() {
	name := "grlint"
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil)[:12])
}

func runPatterns(patterns []string, tags string) int {
	loader := analysis.NewLoader("")
	loader.Tests = true
	loader.BuildTags = tags
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grlint:", err)
		return 2
	}
	return runPackages(pkgs)
}

func runDir(dir string) int {
	loader := analysis.NewLoader("")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grlint:", err)
		return 2
	}
	if pkg.IllTyped {
		fmt.Fprintf(os.Stderr, "grlint: %s does not type-check: %s\n", dir, pkg.TypeErrors)
		return 2
	}
	return runPackages([]*analysis.Package{pkg})
}

type finding struct {
	pos      string
	line     int
	message  string
	analyzer string
}

func runPackages(pkgs []*analysis.Package) int {
	var findings []finding
	for _, pkg := range pkgs {
		if pkg.IllTyped {
			// External test packages can depend on test-variant exports the
			// compiled export data lacks; the vet-driver mode covers those
			// exactly, so standalone mode skips them loudly instead of
			// reporting phantom findings on half-typed syntax.
			fmt.Fprintf(os.Stderr, "grlint: skipping %s (type errors: %s)\n", pkg.Path, pkg.TypeErrors)
			continue
		}
		findings = append(findings, analyzePackage(pkg)...)
	}
	if len(findings) == 0 {
		return 0
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].message < findings[j].message
	})
	for _, f := range findings {
		fmt.Printf("%s: %s (%s)\n", f.pos, f.message, f.analyzer)
	}
	return 1
}

func analyzePackage(pkg *analysis.Package) []finding {
	var findings []finding
	for _, a := range analyzers {
		a := a
		pass := analysis.NewPass(a, pkg, nil)
		pass.Report = func(d analysis.Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			findings = append(findings, finding{
				pos: posn.String(), line: posn.Line, message: d.Message, analyzer: a.Name,
			})
		}
		if _, err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "grlint: %s on %s: %v\n", a.Name, pkg.Path, err)
		}
	}
	findings = append(findings, checkIgnoreHygiene(pkg)...)
	return findings
}

// checkIgnoreHygiene enforces the suppression contract: every
// //grlint:ignore names a real analyzer and carries a reason.
func checkIgnoreHygiene(pkg *analysis.Package) []finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := analysis.ParseIgnore(c.Text)
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				switch {
				case name == "":
					findings = append(findings, finding{pos: posn.String(), line: posn.Line,
						message: "grlint:ignore must name an analyzer and a reason", analyzer: "grlint"})
				case !known[name]:
					findings = append(findings, finding{pos: posn.String(), line: posn.Line,
						message: fmt.Sprintf("grlint:ignore names unknown analyzer %q", name), analyzer: "grlint"})
				case reason == "":
					findings = append(findings, finding{pos: posn.String(), line: posn.Line,
						message: fmt.Sprintf("grlint:ignore %s needs a reason: suppressions must document why they are sound", name), analyzer: "grlint"})
				}
			}
		}
	}
	return findings
}

// regenerateWire rewrites the golden schema snapshot from the current
// grlint:wire annotations across the matched packages.
func regenerateWire(patterns []string, tags string) error {
	loader := analysis.NewLoader("")
	loader.BuildTags = tags
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return err
	}
	schema := make(wire.Schema)
	for _, pkg := range pkgs {
		for _, d := range wire.FromFiles(pkg.Files, pkg.Path) {
			if d.BadMark != "" {
				return fmt.Errorf("%s: malformed grlint:wire marker %q", pkg.Fset.Position(d.Pos), d.BadMark)
			}
			schema[d.Key] = d.Struct
		}
	}
	path, err := wire.FindSnapshot(".")
	if err != nil {
		return err
	}
	if err := wire.Save(path, schema); err != nil {
		return err
	}
	fmt.Printf("grlint: wrote %d wire structs to %s\n", len(schema), path)
	return nil
}
