package main

import (
	"os"
	"path/filepath"
	"testing"

	"grminer/internal/lint/analysis"
)

// TestRunPackagesIllTyped: standalone mode skips an ill-typed external test
// package with a warning (the vet-driver mode analyses it against its
// test-variant exports), but any other package that does not type-check
// fails the run instead of passing unanalysed.
func TestRunPackagesIllTyped(t *testing.T) {
	dir := t.TempDir()
	src := "package bad\n\nvar n int = \"not an int\"\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader("").LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !pkg.IllTyped {
		t.Fatal("the fixture type-checks")
	}
	if code := runPackages([]*analysis.Package{pkg}); code != 2 {
		t.Errorf("ill-typed package: exit %d, want 2", code)
	}
	pkg.XTest = true
	if code := runPackages([]*analysis.Package{pkg}); code != 0 {
		t.Errorf("ill-typed external test package: exit %d, want 0 (skipped)", code)
	}
}
