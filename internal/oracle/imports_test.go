package oracle

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestImportRule holds the package's two import rules: no non-test
// file of the repository imports it, so the engine cannot come to rely
// on its ground truth; and it does not import, directly or through
// another package of the module, any of the engine packages it is the
// ground truth for.
func TestImportRule(t *testing.T) {
	const self = "repro/internal/oracle"
	engine := []string{"repro/internal/constraint", "repro/internal/dom", "repro/internal/learn", "repro/internal/core"}

	// Walk this package's module imports; the test runs in its
	// directory, so repro/internal/x is ../x.
	seen := map[string]bool{}
	var walk func(path, via string)
	walk = func(path, via string) {
		if seen[path] {
			return
		}
		seen[path] = true
		if slices.Contains(engine, path) {
			t.Errorf("%s imports engine package %s (via %s)", self, path, via)
			return
		}
		p, err := build.ImportDir(filepath.Join("..", strings.TrimPrefix(path, "repro/internal/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range p.Imports {
			if strings.HasPrefix(imp, "repro/internal/") {
				walk(imp, via+" -> "+imp)
			}
		}
	}
	walk(self, self)
	if len(seen) < 4 {
		t.Fatalf("walked only %v; is the test running in the package directory?", seen)
	}

	root := filepath.Join("..", "..")
	dirs := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		dirs++
		if slices.Contains(p.Imports, self) {
			t.Errorf("non-test files of %s import %s; only tests may", path, self)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirs < 20 {
		t.Fatalf("checked only %d package directories", dirs)
	}
}
