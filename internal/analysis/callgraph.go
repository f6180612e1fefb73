package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the whole-program view the interprocedural rule
// (lockorder) runs on: a call graph over every function of every analyzed
// package, resolved with class-hierarchy analysis (CHA) so calls through
// interfaces fan out to every concrete method in the program that could be
// behind them.
//
// A deadlock is a property of how functions compose — lock A taken in one
// helper while a caller three frames up holds B — so per-function
// syntactic rules cannot see it. The Program is the shared substrate: built
// once per Run, handed to every rule with a RunProgram hook, with a
// FactStore so rules publish and consume per-function summaries instead of
// re-deriving them.

// Program is the whole-program view over one Run's packages.
type Program struct {
	// Pkgs are the analyzed packages, in the order given to Run.
	Pkgs []*Package
	// Fset is the file set shared by every package.
	Fset *token.FileSet
	// Funcs maps every declared function or method (with a body) in the
	// analyzed packages to its info.
	Funcs map[*types.Func]*FuncInfo
	// Facts is the shared per-function fact store.
	Facts *FactStore

	order []*FuncInfo
}

// FuncInfo is one declared function with its resolved outgoing calls.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the resolved outgoing call edges, in source order. Calls
	// inside nested function literals are attributed to the declaring
	// function (the closure runs with its captures; for the summary-based
	// rules that is the right over-approximation).
	Calls []Call
}

// Call is one resolved call edge.
type Call struct {
	// Callee is the invoked function. For interface method calls this is
	// one of possibly several CHA-resolved concrete methods.
	Callee *types.Func
	// Pos is the call site.
	Pos token.Pos
	// ViaInterface marks edges resolved by class-hierarchy analysis
	// rather than a direct static call.
	ViaInterface bool
	// Async marks calls that do not run inline on the caller's
	// goroutine: the call sits inside a function literal that is not
	// immediately invoked (go statements, deferred closures, stored
	// callbacks).
	Async bool
}

// Functions returns every function in the program in deterministic order
// (package path, then source position).
func (prog *Program) Functions() []*FuncInfo {
	return prog.order
}

// FuncDisplayName renders fn for findings: "pkg.Name" for functions,
// "pkg.Recv.Name" for methods (pointer receivers stripped), stable across
// runs.
func FuncDisplayName(fn *types.Func) string {
	if fn == nil {
		return "<unknown>"
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// BuildProgram constructs the call graph over pkgs. It is deterministic:
// functions are ordered by package path then position, and CHA targets are
// sorted by display name.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[*types.Func]*FuncInfo),
		Facts: NewFactStore(),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}

	// Pass 1: index every declared function.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				prog.Funcs[fn] = fi
				prog.order = append(prog.order, fi)
			}
		}
	}
	sort.Slice(prog.order, func(i, j int) bool {
		a, b := prog.order[i], prog.order[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})

	cha := newCHAIndex(prog)

	// Pass 2: resolve call edges.
	for _, fi := range prog.order {
		fi.Calls = collectCalls(prog, cha, fi)
	}
	return prog
}

// chaIndex supports class-hierarchy analysis: for an interface method
// call, every concrete method in the program whose receiver type
// implements the interface is a possible target.
type chaIndex struct {
	// methodsByName maps a method name to every declared concrete method
	// with that name.
	methodsByName map[string][]*types.Func
}

func newCHAIndex(prog *Program) *chaIndex {
	idx := &chaIndex{methodsByName: make(map[string][]*types.Func)}
	for _, fi := range prog.order {
		sig, _ := fi.Fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		idx.methodsByName[fi.Fn.Name()] = append(idx.methodsByName[fi.Fn.Name()], fi.Fn)
	}
	return idx
}

// resolveInterface returns the concrete in-program methods an interface
// method call could dispatch to, sorted for determinism.
func (idx *chaIndex) resolveInterface(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, m := range idx.methodsByName[name] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) {
			out = append(out, m)
			continue
		}
		// Value receivers also satisfy through the pointer type.
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(recv), iface) {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := FuncDisplayName(out[i]), FuncDisplayName(out[j])
		if a != b {
			return a < b
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}

// collectCalls resolves every call in fi's body (closures included,
// attributed to fi; calls inside non-immediately-invoked literals are
// marked Async).
func collectCalls(prog *Program, cha *chaIndex, fi *FuncInfo) []Call {
	info := fi.Pkg.Info
	inline := inlineInvokedLits(fi.Decl)
	var calls []Call
	var walk func(n ast.Node, async bool)
	walk = func(n ast.Node, async bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Immediately-invoked literals run inline; anything else
				// runs later (go/defer/stored callback).
				walk(n.Body, async || !inline[n])
				return false
			case *ast.CallExpr:
				calls = append(calls, resolveCall(prog, cha, info, n, async)...)
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].Pos < calls[j].Pos })
	return calls
}

// inlineInvokedLits returns the function literals in fd that execute
// inline at their declaration site: "func(){...}()" call operands, except
// under go or defer statements (those run on another goroutine or at
// function exit).
func inlineInvokedLits(fd *ast.FuncDecl) map[*ast.FuncLit]bool {
	deferred := make(map[*ast.CallExpr]bool)
	inline := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			deferred[n.Call] = true
		case *ast.DeferStmt:
			deferred[n.Call] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferred[call] {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			inline[lit] = true
		}
		return true
	})
	return inline
}

// resolveCall maps one call expression to zero or more edges.
func resolveCall(prog *Program, cha *chaIndex, info *types.Info, call *ast.CallExpr, async bool) []Call {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []Call{{Callee: fn, Pos: call.Pos(), Async: async}}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		// Interface method call: CHA fan-out to concrete methods, keeping
		// the abstract callee too (its name carries the contract even when
		// no in-program type implements it).
		if sel, ok := info.Selections[fun]; ok {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				out := []Call{{Callee: fn, Pos: call.Pos(), Async: async}}
				for _, impl := range cha.resolveInterface(iface, fn.Name()) {
					out = append(out, Call{Callee: impl, Pos: call.Pos(), ViaInterface: true, Async: async})
				}
				return out
			}
		}
		return []Call{{Callee: fn, Pos: call.Pos(), Async: async}}
	}
	return nil
}
