package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// diagexhaustive: the relying party's Diag* constants and the fetch
// breaker's Breaker* states are the vocabulary in which degradation is made
// observable — the paper's whole point is that what goes unreported goes
// unnoticed. A new DiagKind that is missing from a diagnostic switch or
// string table silently renders as "DiagKind(9)" (or not at all) exactly
// when it matters. The rule finds every enum-like named type with two or
// more package-level Diag*- or Breaker*-prefixed constants, and requires:
//
//   - every switch over a value of that type with no default clause to
//     handle every such constant;
//   - every map literal keyed by that type (a string table or an obs
//     event-kind table) to contain every such constant;
//   - in a package that imports an observability package (any package
//     named "obs"), every such enum the package declares to key at least
//     one map whose value type comes from obs: once a package has opted
//     into instrumentation, a state with no metric or flight-recorder event
//     degrades invisibly.
//
// A switch with a default clause is exempt — it has declared a fallback.
// An intentionally-partial table or unobserved enum needs a //lint:ignore
// with its reason.
var diagExhaustiveRule = &Rule{
	Name: "diagexhaustive",
	Doc:  "Diag*/Breaker* constant missing from a switch or table, or such an enum with no obs event-kind table",
	Run:  runDiagExhaustive,
}

// diagConstants returns the names of package-level Diag*- or
// Breaker*-prefixed constants of the named type t, or nil if t is not a
// diag enum (fewer than two such constants).
func diagConstants(t types.Type) map[string]bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	out := make(map[string]bool)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !(strings.HasPrefix(name, "Diag") || strings.HasPrefix(name, "Breaker")) {
			continue
		}
		if types.Identical(c.Type(), t) {
			out[name] = false
		}
	}
	if len(out) < 2 {
		return nil
	}
	return out
}

func missingNames(want map[string]bool) []string {
	var missing []string
	for name, seen := range want {
		if !seen {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// constName resolves an expression (identifier or pkg.Ident selector) to
// the name of the constant it denotes, or "".
func constName(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	if c, ok := info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// fromObsPackage reports whether t is a named type declared in a package
// named "obs".
func fromObsPackage(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "obs"
}

func runDiagExhaustive(pass *Pass) {
	// observed collects the enums some obs-valued table is keyed by.
	observed := make(map[types.Type]bool)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkDiagSwitch(pass, n)
			case *ast.CompositeLit:
				checkDiagTable(pass, n, observed)
			}
			return true
		})
	}
	checkDiagObserved(pass, observed)
}

func checkDiagSwitch(pass *Pass, sw *ast.SwitchStmt) {
	info := pass.Pkg.Info
	if sw.Tag == nil {
		return
	}
	tagType := info.Types[sw.Tag].Type
	if tagType == nil {
		return
	}
	want := diagConstants(tagType)
	if want == nil {
		return
	}
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			return // default clause: the switch has declared a fallback
		}
		for _, e := range clause.List {
			if name := constName(info, e); name != "" {
				if _, tracked := want[name]; tracked {
					want[name] = true
				}
			}
		}
	}
	if missing := missingNames(want); len(missing) != 0 {
		pass.Reportf(sw.Pos(),
			"switch on %s has no default and misses: %s — an unhandled diagnostic is a silent one",
			tagType.String(), strings.Join(missing, ", "))
	}
}

func checkDiagTable(pass *Pass, lit *ast.CompositeLit, observed map[types.Type]bool) {
	info := pass.Pkg.Info
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	mt, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return
	}
	keyType := mt.Key()
	want := diagConstants(keyType)
	if want == nil {
		return
	}
	if fromObsPackage(mt.Elem()) {
		observed[keyType] = true
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if name := constName(info, kv.Key); name != "" {
			if _, tracked := want[name]; tracked {
				want[name] = true
			}
		}
	}
	if missing := missingNames(want); len(missing) != 0 {
		pass.Reportf(lit.Pos(),
			"table keyed by %s misses: %s — an unmapped diagnostic renders as nothing when it matters most",
			keyType.String(), strings.Join(missing, ", "))
	}
}

// checkDiagObserved reports, in a package that imports obs, every diag
// enum the package declares that no obs-valued table is keyed by.
func checkDiagObserved(pass *Pass, observed map[types.Type]bool) {
	pkg := pass.Pkg.Types
	if pkg == nil || !importsObs(pkg) {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || observed[tn.Type()] || diagConstants(tn.Type()) == nil {
			continue
		}
		pass.Reportf(tn.Pos(),
			"observable enum %s has no obs event-kind table: every state this package can enter must map to a metric or flight-recorder event",
			name)
	}
}

// importsObs reports whether pkg imports any package named "obs".
func importsObs(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Name() == "obs" {
			return true
		}
	}
	return false
}
