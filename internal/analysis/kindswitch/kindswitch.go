// Package kindswitch enforces wire-protocol exhaustiveness: every
// dispatch over a Kind*/Status* constant family handles every member.
// An unhandled message kind on the data plane is an acked write that
// silently went nowhere — exactly the class of bug the protocol
// contract (DESIGN.md, "Static contract") exists to make impossible to
// introduce.
//
// A "family" is the set of package-level constants that share a
// recognised prefix (Kind or Status), a declaring package, and a type:
// node.KindGet … node.KindDump form one family, transport.StatusOK …
// transport.StatusRetry another. A switch whose case expressions all
// resolve to members of one family is a family switch. The rules:
//
//   - An unannotated family switch must either list every member or
//     carry an explicit default clause. Silent fallthrough off the end
//     of a kind dispatch is never acceptable.
//
//   - A switch annotated //lint:exhaustive must list every member
//     explicitly even if it has a default: the annotation is how
//     node.Handle guarantees that ADDING a Kind constant without a
//     handler case fails the lint run, default clause or not.
//
//   - A var/const declaration annotated //lint:exhaustive whose value
//     is a composite literal keyed by family constants (the KindNames
//     registry) must contain every member as a key. This is the
//     "every Kind has a wire-table entry" half of the contract; the
//     codec itself is kind-generic, so the name registry is where a
//     new kind must be declared for tooling and the dispatch
//     regression test to see it.
//
// A misplaced //lint:exhaustive (no family switch or family-keyed
// literal below it) is itself reported, so the annotation cannot rot.
package kindswitch

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"unicode"

	"repro/internal/analysis"
)

// Analyzer is the kindswitch check.
var Analyzer = &analysis.Analyzer{
	Name: "kindswitch",
	Doc:  "flags non-exhaustive switches and registries over wire constant families (Kind*, Status*)",
	Run:  run,
}

// familyPrefixes are the constant-name prefixes treated as wire
// families. Deliberately narrow: the contract covers the wire protocol,
// not every enum-like constant group in the module.
var familyPrefixes = []string{"Kind", "Status"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.GenDecl:
				if _, ok := pass.Directive(n, "exhaustive"); ok {
					checkRegistry(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// family identifies one constant family.
type family struct {
	pkg    *types.Package
	prefix string
	typ    types.Type
}

func (f family) String() string { return f.pkg.Name() + "." + f.prefix + "*" }

// members returns the family's constant names, sorted.
func (f family) members() []string {
	var out []string
	scope := f.pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if prefixOf(name) == f.prefix && types.Identical(c.Type(), f.typ) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// prefixOf extracts the family prefix of a constant name: the leading
// segment up to the second uppercase rune ("KindEpochFlush" -> "Kind"),
// if it is a recognised family prefix.
func prefixOf(name string) string {
	runes := []rune(name)
	if len(runes) == 0 || !unicode.IsUpper(runes[0]) {
		return ""
	}
	end := len(runes)
	for i := 1; i < len(runes); i++ {
		if unicode.IsUpper(runes[i]) {
			end = i
			break
		}
	}
	p := string(runes[:end])
	for _, fp := range familyPrefixes {
		if p == fp {
			return p
		}
	}
	return ""
}

// familyConst resolves an expression to a family constant, if it is
// one: a package-level constant with a recognised prefix.
func familyConst(info *types.Info, e ast.Expr) (*types.Const, string) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, ""
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Parent() != c.Pkg().Scope() {
		return nil, ""
	}
	p := prefixOf(c.Name())
	if p == "" {
		return nil, ""
	}
	return c, p
}

// checkSwitch classifies one switch statement and enforces the family
// rules on it.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	_, annotated := pass.Directive(sw, "exhaustive")
	fam, covered, hasDefault, ok := switchFamily(pass, sw)
	if !ok {
		if annotated {
			pass.Reportf(sw.Pos(), "lint:exhaustive on a switch that does not dispatch over a single Kind*/Status* constant family")
		}
		return
	}
	missing := missingMembers(fam, covered)
	if len(missing) == 0 {
		return
	}
	if annotated {
		pass.Reportf(sw.Pos(), "switch over %s is annotated lint:exhaustive but lacks cases for %s",
			fam, strings.Join(missing, ", "))
		return
	}
	if !hasDefault {
		pass.Reportf(sw.Pos(), "switch over %s lacks cases for %s and has no default; handle them or add an explicit default",
			fam, strings.Join(missing, ", "))
	}
}

// switchFamily determines whether sw dispatches over one constant
// family: at least one case expression is a family constant, every
// case expression belongs to the same family, and at least two family
// members exist (a single constant is a sentinel, not a family).
func switchFamily(pass *analysis.Pass, sw *ast.SwitchStmt) (fam family, covered map[string]bool, hasDefault, ok bool) {
	if sw.Tag == nil {
		return family{}, nil, false, false
	}
	covered = make(map[string]bool)
	seen := false
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			cst, prefix := familyConst(pass.TypesInfo, e)
			if cst == nil {
				return family{}, nil, false, false
			}
			f := family{pkg: cst.Pkg(), prefix: prefix, typ: cst.Type()}
			if !seen {
				fam, seen = f, true
			} else if f.pkg != fam.pkg || f.prefix != fam.prefix || !types.Identical(f.typ, fam.typ) {
				return family{}, nil, false, false
			}
			covered[cst.Name()] = true
		}
	}
	if !seen || len(fam.members()) < 2 {
		return family{}, nil, false, false
	}
	return fam, covered, hasDefault, true
}

func missingMembers(fam family, covered map[string]bool) []string {
	var missing []string
	for _, name := range fam.members() {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// checkRegistry enforces lint:exhaustive on a declaration whose value
// is a composite literal keyed by family constants.
func checkRegistry(pass *analysis.Pass, decl *ast.GenDecl) {
	checked := false
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			lit, ok := ast.Unparen(v).(*ast.CompositeLit)
			if !ok {
				continue
			}
			if checkLiteral(pass, lit) {
				checked = true
			}
		}
	}
	if !checked {
		pass.Reportf(decl.Pos(), "lint:exhaustive on a declaration with no composite literal keyed by a Kind*/Status* constant family")
	}
}

// checkLiteral reports missing family members among the literal's keys.
// It returns false when the keys do not form a single family.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	var fam family
	covered := make(map[string]bool)
	seen := false
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return false
		}
		cst, prefix := familyConst(pass.TypesInfo, kv.Key)
		if cst == nil {
			return false
		}
		f := family{pkg: cst.Pkg(), prefix: prefix, typ: cst.Type()}
		if !seen {
			fam, seen = f, true
		} else if f.pkg != fam.pkg || f.prefix != fam.prefix || !types.Identical(f.typ, fam.typ) {
			return false
		}
		covered[cst.Name()] = true
	}
	if !seen {
		return false
	}
	if missing := missingMembers(fam, covered); len(missing) > 0 {
		pass.Reportf(lit.Pos(), "registry over %s is annotated lint:exhaustive but lacks entries for %s",
			fam, strings.Join(missing, ", "))
	}
	return true
}
