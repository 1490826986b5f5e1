package repro_test

// A dead-code guard: every exported function and method declared under
// internal/ must be named by some non-test file of the repository
// (bench/, cmd/ and examples/ count as callers). The check matches
// names, not types, so it can miss dead code that shares a name with a
// live function, but it never flags code that something calls.
// internal/oracle is skipped as declarer and as caller alike: it is
// ground truth for tests, and its TestImportRule forbids non-test
// importers.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exports that no non-test file names but
// that are kept anyway, each with its reason.
var exportAllowlist = map[string]string{
	"Unwrap":   "errors.Is/As call it through the unwrap interface",
	"Less":     "container/heap calls it through heap.Interface",
	"Pop":      "container/heap calls it through heap.Interface",
	"TestData": "analysis tests locate their fixtures with analysistest.TestData",
	"Violates": "the one-vector floating-mode predicate the oracle tests check witnesses against",
	// Used by the server end-to-end suites and CI's /metrics scrape step.
	"CheckInline":  "client half of the inline-netlist endpoint the server e2e suites drive",
	"Healthz":      "client half of /healthz the server e2e suites drive",
	"MetricsProm":  "client half of /metrics the server e2e suites drive",
	"ValidateProm": "CI's scrape step validates a live /metrics body with it",
}

func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ name, where string }
	var decls []decl
	refs := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || filepath.ToSlash(path) == "internal/oracle") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			slash := filepath.ToSlash(path)
			if !fd.Name.IsExported() || !strings.HasPrefix(slash, "internal/") {
				continue
			}
			where := slash + ": " + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				where = slash + ": (" + recvName(fd.Recv.List[0].Type) + ")." + fd.Name.Name
			}
			decls = append(decls, decl{fd.Name.Name, where})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/; is the test running from the repository root?")
	}
	var dead []string
	for _, d := range decls {
		if refs[d.name] == 0 && exportAllowlist[d.name] == "" {
			dead = append(dead, d.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported functions have no caller outside tests; delete them, move them into the tests that use them, or allowlist them with a reason:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	for name := range exportAllowlist {
		if refs[name] > 0 {
			t.Errorf("allowlisted %s now has a caller; drop it from the allowlist", name)
		}
	}
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
