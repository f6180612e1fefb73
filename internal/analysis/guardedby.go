package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// guardedby: the concurrency-safety contracts of the rtr.Cache, the
// relying party's memo/LKG stores and the sync state are documented as
// "// guarded by <mu>" comments on struct fields. The race detector only
// catches violations on paths a test happens to race; this rule checks
// every access statically. A field annotated "guarded by mu" may only be
// read or written in a function that locks the same object's <mu>
// (<base>.<mu>.Lock() or .RLock() textually preceding the access — the
// stdlib-only approximation of dominance), or in a function whose name
// ends in "Locked" (the repo's convention for "caller holds the lock").
// A field of a struct that has no mutex of its own, shared by an owner that
// does, is annotated with a qualified guard, "guarded by Owner.mu": any
// <x>.mu.Lock() preceding the access then holds it, since the value does
// not know which owner's mutex is its own. An annotation naming a mutex
// field that does not exist in the struct (or in Owner) is itself a
// finding — a guard contract pointing at nothing protects nothing.
var guardedByRule = &Rule{
	Name: "guardedby",
	Doc:  "field annotated '// guarded by <mu>' accessed without locking <mu>",
	Run:  runGuardedBy,
}

var guardedByPattern = regexp.MustCompile(`guarded by (\w+(?:\.\w+)?)`)

// guardedField records one annotation: the field object and the name of
// the mutex field guarding it, "mu" or "Owner.mu".
type guardedField struct {
	mu string
}

func runGuardedBy(pass *Pass) {
	info := pass.Pkg.Info
	annotated := collectGuardedFields(pass)
	if len(annotated) == 0 {
		return
	}
	for _, file := range pass.Pkg.Files {
		idx := indexFuncs(file)
		// lockEvents caches, per function declaration, the positions of
		// every "<root>.Lock()" / "<root>.RLock()" call keyed by root.
		lockEvents := make(map[*ast.FuncDecl]map[string][]token.Pos)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			guard, ok := annotated[obj]
			if !ok {
				return true
			}
			fd := idx.enclosing(sel.Pos())
			if fd == nil {
				pass.Reportf(sel.Pos(),
					"%s is guarded by %s but accessed outside any function",
					obj.Name(), guard.mu)
				return true
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				return true // convention: caller holds the lock
			}
			base := types.ExprString(sel.X)
			root := base + "." + guard.mu
			_, mu, qualified := strings.Cut(guard.mu, ".")
			if qualified {
				root = "<x>." + mu
			}
			events, ok := lockEvents[fd]
			if !ok {
				events = collectLockEvents(fd)
				lockEvents[fd] = events
			}
			held := false
			for locked, ps := range events {
				if (locked == root || qualified && strings.HasSuffix(locked, "."+mu)) && ps[0] < sel.Pos() {
					held = true
				}
			}
			if !held {
				pass.Reportf(sel.Pos(),
					"%s.%s is guarded by %s but %s contains no preceding %s.Lock()",
					base, obj.Name(), guard.mu, fd.Name.Name, root)
			}
			return true
		})
	}
}

// collectGuardedFields scans struct declarations for "guarded by" field
// annotations, validating that the named mutex is a sibling field.
func collectGuardedFields(pass *Pass) map[*types.Var]guardedField {
	info := pass.Pkg.Info
	out := make(map[*types.Var]guardedField)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := make(map[string]bool)
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					siblings[name.Name] = true
				}
			}
			// An annotation on a field whose declaration line carries no
			// comment inherits the group's doc comment, so one "guarded by"
			// doc line can cover a block of fields.
			var pending string
			for _, field := range st.Fields.List {
				mu := ""
				if field.Doc != nil {
					if m := guardedByPattern.FindStringSubmatch(field.Doc.Text()); m != nil {
						mu = m[1]
						pending = m[1]
					} else {
						pending = ""
					}
				}
				if field.Comment != nil {
					if m := guardedByPattern.FindStringSubmatch(field.Comment.Text()); m != nil {
						mu = m[1]
					}
				}
				if mu == "" && field.Doc == nil && field.Comment == nil {
					mu = pending
				}
				if mu == "" {
					continue
				}
				if owner, ownerMu, qualified := strings.Cut(mu, "."); qualified {
					if !hasField(pass.Pkg.Types, owner, ownerMu) {
						pass.Reportf(field.Pos(),
							"'guarded by %s' names no field of a struct of this package: the guard contract protects nothing", mu)
						continue
					}
				} else if !siblings[mu] {
					pass.Reportf(field.Pos(),
						"'guarded by %s' names no field of this struct: the guard contract protects nothing", mu)
					continue
				}
				for _, name := range field.Names {
					if name.Name == mu {
						continue
					}
					if obj, ok := info.Defs[name].(*types.Var); ok {
						out[obj] = guardedField{mu: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

// hasField reports whether pkg declares a type owner with a field name.
func hasField(pkg *types.Package, owner, name string) bool {
	tn, ok := pkg.Scope().Lookup(owner).(*types.TypeName)
	if !ok {
		return false
	}
	field, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name)
	_, ok = field.(*types.Var)
	return ok
}

// collectLockEvents finds every "<root>.Lock()" / "<root>.RLock()" call in
// fd, keyed by the printed root expression.
func collectLockEvents(fd *ast.FuncDecl) map[string][]token.Pos {
	events := make(map[string][]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		root := types.ExprString(sel.X)
		events[root] = append(events[root], call.Pos())
		return true
	})
	return events
}
