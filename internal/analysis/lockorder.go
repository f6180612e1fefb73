package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockorder audits how the repository's mutexes compose: the RTR cache's
// state and subscriber-table locks, the publication point stores, and the
// relying party's memo/LKG stores each hold their own lock correctly in
// isolation (guardedby checks that), but a deadlock is a property of the
// *composition* — lock A taken while holding B in one call chain and B
// while holding A in another, or any lock held across an operation that
// can stall on a misbehaving peer.
//
// The rule derives, per function, an ordered event list — mutex
// Lock/RLock/Unlock calls on struct-field or package-level sync.Mutex/
// RWMutex values, blocking channel operations (sends, receives and
// selects without a default arm, ranges over channels), direct conn
// reads/writes — plus the resolved call sites. Per-function summaries
// ("may acquire these locks", "may block") propagate through the call
// graph to a fixpoint; each function is then simulated in textual order:
//
//   - acquiring L while holding H adds the edge H→L to the global
//     lock-order graph; cycles in that graph are reported as potential
//     deadlocks;
//   - acquiring (or calling a function that may acquire) a lock already
//     held is reported: sync mutexes are not reentrant, and for instances
//     of one type the same static identity means a possible re-entry of
//     the same instance;
//   - blocking — directly or via a callee that may block — while holding
//     any lock is reported: a stalled router or repository must never
//     extend its stall into a lock everyone else needs.
//
// Locks are identified statically as pkg.Type.field (or pkg.var); two
// instances of one field share an identity, which errs toward reporting.
// Events on goroutines spawned inside the function (go statements,
// deferred or stored closures) are not attributed to the caller's
// goroutine and are analyzed only through the functions they call.
var lockOrderRule = &Rule{
	Name:       "lockorder",
	Doc:        "lock-order cycles, same-lock re-entry, and locks held across blocking operations, over the whole-program call graph",
	RunProgram: runLockOrder,
}

type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evBlock
	evCall
)

type lockEvent struct {
	kind  lockEventKind
	pos   token.Pos
	lock  string // acquire/release
	rlock bool   // acquire via RLock
	what  string // block: "channel send", "conn write", ...
	call  *types.Func
}

// lockOrderSummary is one function's summary.
type lockOrderSummary struct {
	events []lockEvent
	// mayAcquire maps every lock this function (or a transitive callee,
	// once the fixpoint completes) can acquire to one example site.
	mayAcquire map[string]token.Pos
	// mayBlock names the first blocking operation reachable from this
	// function on the calling goroutine ("" if none).
	mayBlock string
}

func runLockOrder(pp *ProgramPass) {
	prog := pp.Prog

	// Phase 1: intrinsic per-function summaries.
	summaries := make(map[*types.Func]*lockOrderSummary)
	for _, fi := range prog.Functions() {
		summaries[fi.Fn] = collectLockOrderSummary(fi)
	}

	// Phase 2: transitive closure of mayAcquire/mayBlock over call edges.
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Functions() {
			s := summaries[fi.Fn]
			for _, ev := range s.events {
				if ev.kind != evCall {
					continue
				}
				cs := summaries[ev.call]
				if cs == nil {
					continue
				}
				for lock := range cs.mayAcquire {
					if _, ok := s.mayAcquire[lock]; !ok {
						s.mayAcquire[lock] = ev.pos
						changed = true
					}
				}
				if s.mayBlock == "" && cs.mayBlock != "" {
					s.mayBlock = cs.mayBlock + " (via " + FuncDisplayName(ev.call) + ")"
					changed = true
				}
			}
		}
	}

	// Phase 3: simulate each function, building the global lock-order
	// graph and reporting local hazards.
	edges := make(map[string]map[string]lockEdgeSite)
	addEdge := func(from, to string, pos token.Pos, fn string) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[string]lockEdgeSite)
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = lockEdgeSite{pos: pos, fn: fn}
		}
	}

	for _, fi := range prog.Functions() {
		s := summaries[fi.Fn]
		fname := FuncDisplayName(fi.Fn)
		type heldLock struct {
			lock  string
			rlock bool
			line  int
		}
		var held []heldLock
		holdsDesc := func() string {
			names := make([]string, len(held))
			for i, h := range held {
				names[i] = h.lock
			}
			return strings.Join(names, ", ")
		}
		reported := make(map[string]bool)
		reportOnce := func(pos token.Pos, format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if !reported[msg] {
				reported[msg] = true
				pp.Reportf(pos, "%s", msg)
			}
		}
		for _, ev := range s.events {
			switch ev.kind {
			case evAcquire:
				line := prog.Fset.Position(ev.pos).Line
				for _, h := range held {
					if h.lock == ev.lock {
						if h.rlock && ev.rlock {
							continue // RLock twice: legal (though writer-starvation-prone)
						}
						reportOnce(ev.pos,
							"%s acquired while already held (line %d): mutexes are not reentrant — same-shard re-entry deadlocks",
							ev.lock, h.line)
						continue
					}
					addEdge(h.lock, ev.lock, ev.pos, fname)
				}
				held = append(held, heldLock{lock: ev.lock, rlock: ev.rlock, line: line})
			case evRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].lock == ev.lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evBlock:
				if len(held) > 0 {
					reportOnce(ev.pos,
						"%s while holding %s: a peer that stalls this operation stalls every user of the lock",
						ev.what, holdsDesc())
				}
			case evCall:
				cs := summaries[ev.call]
				if cs == nil || len(held) == 0 {
					continue
				}
				if cs.mayBlock != "" {
					reportOnce(ev.pos,
						"call to %s, which can block on %s, while holding %s: a peer that stalls this operation stalls every user of the lock",
						FuncDisplayName(ev.call), cs.mayBlock, holdsDesc())
				}
				for _, lock := range sortedKeys(cs.mayAcquire) {
					heldIt := false
					for _, h := range held {
						if h.lock == lock {
							heldIt = true
							break
						}
					}
					if heldIt {
						reportOnce(ev.pos,
							"call to %s may re-acquire %s, which is already held: mutexes are not reentrant — same-shard re-entry deadlocks",
							FuncDisplayName(ev.call), lock)
						continue
					}
					for _, h := range held {
						addEdge(h.lock, lock, ev.pos, fname)
					}
				}
			}
		}
	}

	// Phase 4: cycles in the global lock-order graph.
	reportLockCycles(pp, edges)
}

type lockEdgeSite struct {
	pos token.Pos
	fn  string
}

// reportLockCycles finds strongly connected components of the lock-order
// graph and reports each component with >1 lock as a potential deadlock,
// listing one witness edge per direction.
func reportLockCycles(pp *ProgramPass, edges map[string]map[string]lockEdgeSite) {
	nodes := sortedKeysOfEdgeMap(edges)
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 1
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys2(edges[v]) {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	for _, scc := range sccs {
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		var parts []string
		var at token.Pos
		for _, from := range scc {
			for _, to := range sortedKeys2(edges[from]) {
				if !in[to] {
					continue
				}
				site := edges[from][to]
				p := pp.Prog.Fset.Position(site.pos)
				parts = append(parts, fmt.Sprintf("%s→%s in %s (%s:%d)",
					from, to, site.fn, filepath.Base(p.Filename), p.Line))
				if at == token.NoPos {
					at = site.pos
				}
			}
		}
		pp.Reportf(at,
			"lock-order cycle among {%s}: %s — two goroutines interleaving these chains deadlock",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}

func sortedKeys(m map[string]token.Pos) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys2(m map[string]lockEdgeSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysOfEdgeMap(m map[string]map[string]lockEdgeSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// collectLockOrderSummary derives fi's intrinsic ordered events: lock
// operations, blocking operations, and calls, on the calling goroutine
// only (non-inline function literals and defer bodies excluded).
func collectLockOrderSummary(fi *FuncInfo) *lockOrderSummary {
	info := fi.Pkg.Info
	s := &lockOrderSummary{mayAcquire: make(map[string]token.Pos)}
	inline := inlineInvokedLits(fi.Decl)
	// handledComm marks channel operations that sit in a select with a
	// default arm — those never block.
	handledComm := make(map[ast.Node]bool)

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if inline[n] {
					walk(n.Body)
				}
				return false
			case *ast.DeferStmt:
				// Deferred unlocks release at return (the lock stays held
				// for the rest of the body — exactly what not emitting a
				// release models). Other deferred work runs outside the
				// textual order and is not simulated.
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					markCommOps(cc.Comm, handledComm)
				}
				if !hasDefault {
					s.events = append(s.events, lockEvent{kind: evBlock, pos: n.Pos(), what: "select with no default arm"})
				}
				return true
			case *ast.SendStmt:
				if !handledComm[n] {
					s.events = append(s.events, lockEvent{kind: evBlock, pos: n.Pos(), what: "channel send"})
				}
				return true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !handledComm[n] {
					s.events = append(s.events, lockEvent{kind: evBlock, pos: n.Pos(), what: "channel receive"})
				}
				return true
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						s.events = append(s.events, lockEvent{kind: evBlock, pos: n.Pos(), what: "range over channel"})
					}
				}
				return true
			case *ast.CallExpr:
				if ev, ok := lockOpEvent(fi, n); ok {
					s.events = append(s.events, ev)
					return true
				}
				if what, ok := connIOCall(info, n); ok {
					s.events = append(s.events, lockEvent{kind: evBlock, pos: n.Pos(), what: what})
					return true
				}
				return true
			}
			return true
		})
	}
	walk(fi.Decl.Body)

	// Call events come from the resolved graph (same positions, resolved
	// callees), filtered to inline edges; deferred calls run outside the
	// textual order and are excluded. Merge into textual order.
	deferRanges := collectDeferRanges(fi.Decl)
	for _, call := range fi.Calls {
		if call.Async || deferRanges.contains(call.Pos) {
			continue
		}
		s.events = append(s.events, lockEvent{kind: evCall, pos: call.Pos, call: call.Callee})
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].pos < s.events[j].pos })

	for _, ev := range s.events {
		if ev.kind == evAcquire {
			if _, ok := s.mayAcquire[ev.lock]; !ok {
				s.mayAcquire[ev.lock] = ev.pos
			}
		}
		if ev.kind == evBlock && s.mayBlock == "" {
			s.mayBlock = ev.what
		}
	}
	return s
}

// posRanges is a set of source ranges.
type posRanges []struct{ start, end token.Pos }

func (r posRanges) contains(pos token.Pos) bool {
	for _, rng := range r {
		if rng.start <= pos && pos <= rng.end {
			return true
		}
	}
	return false
}

// collectDeferRanges returns the source ranges of every defer statement in
// fd (argument evaluation is immediate, but the repo's defers are
// uniformly cleanup calls — treating the whole statement as deferred is
// the simpler approximation).
func collectDeferRanges(fd *ast.FuncDecl) posRanges {
	var out posRanges
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			out = append(out, struct{ start, end token.Pos }{d.Pos(), d.End()})
		}
		return true
	})
	return out
}

// markCommOps records the channel operations of one select comm clause so
// the general walker knows they were already classified.
func markCommOps(stmt ast.Stmt, handled map[ast.Node]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			handled[n] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				handled[n] = true
			}
		}
		return true
	})
}

// lockOpEvent resolves call as a mutex Lock/RLock/Unlock/RUnlock on a
// statically identifiable lock (struct field or package-level variable of
// type sync.Mutex or sync.RWMutex).
func lockOpEvent(fi *FuncInfo, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var kind lockEventKind
	rlock := false
	switch sel.Sel.Name {
	case "Lock":
		kind = evAcquire
	case "RLock":
		kind, rlock = evAcquire, true
	case "Unlock", "RUnlock":
		kind = evRelease
	default:
		return lockEvent{}, false
	}
	id, ok := lockIdent(fi, sel.X)
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{kind: kind, pos: call.Pos(), lock: id, rlock: rlock}, true
}

// lockIdent names the mutex value expr statically: "pkg.Type.field" for a
// struct-field mutex, "pkg.var" for a package-level one. Local mutexes
// (cannot be contended across functions without escaping, which a field
// would capture) and dynamically chosen ones return ok=false.
func lockIdent(fi *FuncInfo, expr ast.Expr) (string, bool) {
	info := fi.Pkg.Info
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[x.Sel].(*types.Var)
		if !ok || !obj.IsField() || !isMutexType(obj.Type()) {
			return "", false
		}
		recv := info.TypeOf(x.X)
		for {
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
				continue
			}
			break
		}
		if named, ok := recv.(*types.Named); ok {
			pkg := ""
			if named.Obj().Pkg() != nil {
				pkg = named.Obj().Pkg().Name() + "."
			}
			return pkg + named.Obj().Name() + "." + obj.Name(), true
		}
		return "", false
	case *ast.Ident:
		obj, ok := info.Uses[x].(*types.Var)
		if !ok || !isMutexType(obj.Type()) {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
		return "", false
	}
	return "", false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// connIOCall reports whether call is a direct read or write on a
// net.Conn-like value.
func connIOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Read", "Write", "ReadFrom", "WriteTo":
	default:
		return "", false
	}
	if t := info.TypeOf(sel.X); t != nil && isConnLike(t) {
		switch sel.Sel.Name {
		case "Read", "ReadFrom":
			return "conn read", true
		}
		return "conn write", true
	}
	return "", false
}
