// Package preparedmut flags writes to the shared per-circuit
// precompute outside its constructor files.
//
// core.Prepared (with its conePrep slices) and circuit.ConeMap are
// built once and then shared by every verifier and every parallel
// RunAll worker on a circuit; after construction they are read
// concurrently without synchronisation beyond the documented
// once/mutex fields. Any later write — to a field, into a backing
// slice or map, or through the struct to the shared netlist — is a
// data race waiting for the right interleaving.
//
// circuit.Layout is the only store of a built circuit's gates and
// connectivity, read by every verifier on the circuit; only the
// builder (builder.go), the file that declares it and Circuit.SetDelay
// there write it.
//
// registry.entry extends the same ownership to the content-addressed
// circuit registry: the entry caches a *core.Prepared shared across
// every batch pinned on it, and all entry bookkeeping (refcounts,
// condemnation, the singleflight channel) is owned by registry.go —
// writes from any other file bypass the registry's locking discipline.
package preparedmut

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Analyzer implements the check; see the package documentation.
var Analyzer = &analysis.Analyzer{
	Name: "preparedmut",
	Doc: `flags writes to core.Prepared / conePrep / circuit.ConeMap / circuit.Layout outside their constructor files

The protected types and the files allowed to mutate them are
configurable (-types, -constructors); the file that declares a
protected type is always allowed, so constructors that live next to
the declaration need no configuration.`,
	Run: run,
}

var (
	typesFlag        string
	constructorsFlag string
)

func init() {
	Analyzer.Flags.StringVar(&typesFlag, "types", "core.Prepared,core.conePrep,circuit.ConeMap,circuit.Layout,registry.entry", "comma-separated pkg.Type list of protected types")
	Analyzer.Flags.StringVar(&constructorsFlag, "constructors", "prepare.go,transform.go,builder.go,registry.go", "comma-separated file basenames allowed to mutate protected types")
	analysis.Register(Analyzer)
}

type protected struct{ pkgBase, name string }

func config() (types []protected, files map[string]bool) {
	for _, s := range strings.Split(typesFlag, ",") {
		if pkg, name, ok := strings.Cut(strings.TrimSpace(s), "."); ok {
			types = append(types, protected{pkg, name})
		}
	}
	files = map[string]bool{}
	for _, s := range strings.Split(constructorsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			files[s] = true
		}
	}
	return types, files
}

func run(pass *analysis.Pass) error {
	prot, allowedFiles := config()
	info := pass.TypesInfo

	isProtected := func(t types.Type) (protected, bool) {
		for _, p := range prot {
			if analysis.IsType(t, p.pkgBase, p.name) {
				return p, true
			}
		}
		return protected{}, false
	}

	// protectedRoot walks down an lvalue (through parens, derefs,
	// indexing, slicing, and field selections) and reports the first
	// protected receiver the write goes through, if any. Descending
	// past the first selector means `p.c.Nets[i] = x` is still a write
	// through the shared Prepared even though the touched field
	// belongs to another type.
	var protectedRoot func(e ast.Expr) (protected, bool)
	protectedRoot = func(e ast.Expr) (protected, bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					if p, ok := isProtected(sel.Recv()); ok {
						return p, true
					}
				}
				e = x.X
			default:
				return protected{}, false
			}
		}
	}

	report := func(pos ast.Node, p protected, what string) {
		pass.Report(analysis.Diagnostic{
			Pos: pos.Pos(), Category: "mutation",
			Message: what + " mutates shared " + p.pkgBase + "." + p.name + " after construction; the precompute is shared across goroutines",
		})
	}

	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if allowedFiles[base] || declaresProtected(f, prot, pass.Pkg) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if p, ok := protectedRoot(lhs); ok {
						report(lhs, p, "assignment")
					}
				}
			case *ast.IncDecStmt:
				if p, ok := protectedRoot(n.X); ok {
					report(n.X, p, n.Tok.String())
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
					if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
						return true
					}
					switch id.Name {
					case "delete", "clear":
						if p, ok := protectedRoot(n.Args[0]); ok {
							report(n, p, id.Name+"()")
						}
					case "copy":
						if p, ok := protectedRoot(n.Args[0]); ok {
							report(n, p, "copy() into")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// declaresProtected reports whether file f declares one of the
// protected types in the current package — such a file is the type's
// home and by convention hosts its constructor.
func declaresProtected(f *ast.File, prot []protected, pkg *types.Package) bool {
	pkgBase := strings.TrimSuffix(analysis.PkgPathBase(pkg.Path()), "_test")
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			for _, p := range prot {
				if p.name == ts.Name.Name && p.pkgBase == pkgBase {
					return true
				}
			}
		}
	}
	return false
}
