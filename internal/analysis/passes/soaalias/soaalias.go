// Package soaalias enforces the aliasing discipline of the flat
// structure-of-arrays constraint kernel.
//
// constraint.System keeps every domain lane in one flat []int64 and
// the backtracking trail in an (index, old value) arena; the zero
// steady-state allocation guarantee and the Snapshot/Restore contract
// behind each check's base snapshot both depend on those arrays never
// being aliased. A retained
// sub-slice would observe (or corrupt) domains mid-solve, and a write
// that bypasses the trail API would break Undo. The analyzer checks
// two rules over the configured arrays:
//
//   - no escape: a protected array may be indexed, ranged over,
//     measured (len/cap), copied out of, re-sliced onto itself, or used
//     as the copy source of an append(dst[:0], arr...) snapshot — but a
//     reference to it (or to a sub-slice or element address) must never
//     be returned, stored, or passed to a non-builtin call.
//   - owner-only writes: element writes, whole-array assignments
//     (including the append grow and self-reslice idioms), and copy-into
//     are allowed only inside methods of the arrays' owner types, so the
//     trail arena is only ever written through the trail API.
package soaalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer implements the check; see the package documentation.
var Analyzer = &analysis.Analyzer{
	Name: "soaalias",
	Doc: `flags escaping aliases of, and non-owner writes to, the SoA constraint kernel's flat arrays

The protected arrays (pkg.Owner.field) and the owner types whose
methods may write them are configurable (-arrays, -owners).`,
	Run: run,
}

var (
	arraysFlag string
	ownersFlag string
)

func init() {
	Analyzer.Flags.StringVar(&arraysFlag, "arrays",
		"constraint.System.dom,constraint.trail.idx,constraint.trail.old,constraint.trail.marks",
		"comma-separated pkg.Owner.field list of protected SoA arrays")
	Analyzer.Flags.StringVar(&ownersFlag, "owners",
		"constraint.System,constraint.trail",
		"comma-separated pkg.Type list of types whose methods may write the arrays")
	analysis.Register(Analyzer)
}

type arraySpec struct{ pkgBase, owner, field string }

type ownerSpec struct{ pkgBase, name string }

func config() (arrays []arraySpec, owners []ownerSpec) {
	for _, s := range strings.Split(arraysFlag, ",") {
		parts := strings.Split(strings.TrimSpace(s), ".")
		if len(parts) == 3 {
			arrays = append(arrays, arraySpec{parts[0], parts[1], parts[2]})
		}
	}
	for _, s := range strings.Split(ownersFlag, ",") {
		if pkg, name, ok := strings.Cut(strings.TrimSpace(s), "."); ok {
			owners = append(owners, ownerSpec{pkg, name})
		}
	}
	return arrays, owners
}

func run(pass *analysis.Pass) error {
	arrays, owners := config()
	info := pass.TypesInfo

	// protectedSel reports whether x selects one of the protected
	// arrays (a field of the right name on the right owner type).
	protectedSel := func(x *ast.SelectorExpr) (arraySpec, bool) {
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return arraySpec{}, false
		}
		for _, a := range arrays {
			if x.Sel.Name == a.field && analysis.IsType(sel.Recv(), a.pkgBase, a.owner) {
				return a, true
			}
		}
		return arraySpec{}, false
	}

	isOwnerMethod := func(fd *ast.FuncDecl) bool {
		if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
			return false
		}
		t := info.TypeOf(fd.Recv.List[0].Type)
		for _, o := range owners {
			if analysis.IsType(t, o.pkgBase, o.name) {
				return true
			}
		}
		return false
	}

	for _, f := range pass.Files {
		// Parent links for the whole file: every use decision below
		// depends on the context a protected selector appears in.
		parents := map[ast.Node]ast.Node{}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})

		// parent returns n's nearest non-paren ancestor.
		parent := func(n ast.Node) ast.Node {
			p := parents[n]
			for {
				if _, ok := p.(*ast.ParenExpr); !ok {
					return p
				}
				p = parents[p]
			}
		}
		enclosingFunc := func(n ast.Node) *ast.FuncDecl {
			for n != nil {
				if fd, ok := n.(*ast.FuncDecl); ok {
					return fd
				}
				n = parents[n]
			}
			return nil
		}

		ast.Inspect(f, func(n ast.Node) bool {
			x, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			a, ok := protectedSel(x)
			if !ok {
				return true
			}
			name := a.pkgBase + "." + a.owner + "." + a.field

			escape := func(pos ast.Node, how string) {
				pass.Report(analysis.Diagnostic{
					Pos: pos.Pos(), Category: "alias",
					Message: how + " aliases SoA array " + name + " outside its owner; arena slices must not escape",
				})
			}
			write := func(pos ast.Node) {
				if !isOwnerMethod(enclosingFunc(pos)) {
					pass.Report(analysis.Diagnostic{
						Pos: pos.Pos(), Category: "write",
						Message: "write to SoA array " + name + " outside its owner's methods; domain lanes and trail entries are written only via the owning type",
					})
				}
			}

			switch p := parent(x).(type) {
			case *ast.IndexExpr:
				// Element access. Reads are free; writes need an owner
				// receiver; an element address is an escaping alias.
				switch gp := parent(p).(type) {
				case *ast.UnaryExpr:
					if gp.Op == token.AND {
						escape(gp, "address of an element")
					}
				case *ast.AssignStmt:
					if exprIn(gp.Lhs, p) {
						write(p)
					}
				case *ast.IncDecStmt:
					write(p)
				}
			case *ast.SliceExpr:
				// A sub-slice shares the backing array: the only legal
				// use is the self-reslice s.f = s.f[:n] (the truncation
				// idiom), whose write side is checked at the LHS selector.
				if !isSelfReslice(parent(p), p, protectedSel) {
					escape(p, "sub-slice")
				}
			case *ast.CallExpr:
				checkCallArg(p, x, parent, protectedSel, info, escape, write)
			case *ast.AssignStmt:
				if exprIn(p.Lhs, x) {
					// Whole-array assignment: grow, truncate, or replace.
					// Only owners may rebind the field; what the RHS may
					// be is checked where the RHS expressions are visited.
					write(x)
				} else {
					escape(x, "assignment")
				}
			case *ast.RangeStmt:
				if p.X != x {
					escape(x, "use")
				}
			case *ast.ReturnStmt:
				escape(x, "return")
			case *ast.CompositeLit, *ast.KeyValueExpr:
				escape(x, "composite literal")
			case *ast.UnaryExpr:
				if p.Op == token.AND {
					escape(p, "address-of")
				}
			case *ast.BinaryExpr:
				// Comparisons (s.dom == nil) read nothing but the header.
			default:
				escape(x, "use")
			}
			return true
		})
	}
	return nil
}

// exprIn reports whether e is one of list (pointer identity).
func exprIn(list []ast.Expr, e ast.Expr) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// isSelfReslice reports whether slice (whose X is a protected array)
// is the right-hand side of an assignment whose matching left-hand
// side is itself a protected array selector — the s.f = s.f[:n]
// truncation idiom, which creates no new alias.
func isSelfReslice(gp ast.Node, slice *ast.SliceExpr, protectedSel func(*ast.SelectorExpr) (arraySpec, bool)) bool {
	as, ok := gp.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, rhs := range as.Rhs {
		if rhs != slice {
			continue
		}
		if lsel, ok := as.Lhs[i].(*ast.SelectorExpr); ok {
			_, prot := protectedSel(lsel)
			return prot
		}
	}
	return false
}

// checkCallArg decides the fate of a protected array appearing as a
// call argument: len/cap and copy-out read without aliasing, copy-into
// is an owner-gated write, append may consume the array as a splatted
// copy source or grow it back onto itself, and anything else hands the
// alias to code the kernel does not control.
func checkCallArg(call *ast.CallExpr, x *ast.SelectorExpr,
	parent func(ast.Node) ast.Node,
	protectedSel func(*ast.SelectorExpr) (arraySpec, bool),
	info *types.Info,
	escape func(ast.Node, string), write func(ast.Node)) {

	id, ok := call.Fun.(*ast.Ident)
	builtin := false
	if ok {
		_, builtin = info.Uses[id].(*types.Builtin)
	}
	if !builtin {
		escape(x, "call argument")
		return
	}
	switch id.Name {
	case "len", "cap":
		// Header reads only.
	case "copy":
		if len(call.Args) > 0 && call.Args[0] == x {
			write(call) // copy into the array
		}
		// copy(out, s.dom) copies the values out: no alias retained.
	case "clear":
		write(call)
	case "append":
		switch {
		case call.Ellipsis.IsValid() && call.Args[len(call.Args)-1] == x:
			// append(dst[:0], arr...): arr is a copy source (the
			// Snapshot idiom); nothing aliases it afterwards.
		case len(call.Args) > 0 && call.Args[0] == x:
			// append(s.f, v) grows in place only when assigned straight
			// back to a protected array (the trail push idiom); bound to
			// anything else, the result may alias the arena.
			if as, ok := parent(call).(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if rhs != call {
						continue
					}
					if lsel, ok := as.Lhs[i].(*ast.SelectorExpr); ok {
						if _, prot := protectedSel(lsel); prot {
							return
						}
					}
				}
			}
			escape(call, "append result")
		default:
			escape(x, "append argument")
		}
	default:
		escape(x, "call argument")
	}
}
