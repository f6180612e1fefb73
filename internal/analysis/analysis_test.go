package analysis

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The fixture module lives in testdata (invisible to the go tool) and is
// loaded through the same Loader the CLI uses, under the module path
// "fixturemod" so import-path-sensitive rules (wallclock) see realistic
// paths.
var fixtures struct {
	once sync.Once
	root string
	l    *Loader
	err  error
}

func fixturePackages(t *testing.T, rels ...string) []*Package {
	t.Helper()
	fixtures.once.Do(func() {
		fixtures.root, fixtures.err = filepath.Abs(filepath.Join("testdata", "src", "fixturemod"))
		if fixtures.err == nil {
			fixtures.l = NewLoader(fixtures.root, "fixturemod")
		}
	})
	if fixtures.err != nil {
		t.Fatalf("locating fixtures: %v", fixtures.err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		dir := filepath.Join(fixtures.root, filepath.FromSlash(rel))
		pkg, err := fixtures.l.LoadDir(dir, "fixturemod/"+rel)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", rel, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", rel, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

func fixtureReport(t *testing.T, rels ...string) *Report {
	t.Helper()
	return Run(fixturePackages(t, rels...), Rules(), fixtures.root)
}

func findingStrings(r *Report) []string {
	out := make([]string, 0, len(r.Findings))
	for _, f := range r.Findings {
		out = append(out, f.String())
	}
	return out
}

func checkGolden(t *testing.T, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings mismatch\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestUncheckedVerify(t *testing.T) {
	rep := fixtureReport(t, "uncheckedverify")
	checkGolden(t, findingStrings(rep), []string{
		"uncheckedverify/uncheckedverify.go:27: [uncheckedverify] error result of VerifyHash is discarded: a dropped verification verdict admits unverified objects",
		"uncheckedverify/uncheckedverify.go:28: [uncheckedverify] error result of VerifyHash is discarded: a dropped verification verdict admits unverified objects",
		"uncheckedverify/uncheckedverify.go:29: [uncheckedverify] error result of CheckPair is discarded: a dropped verification verdict admits unverified objects",
	})
}

func TestDeadlineBeforeIO(t *testing.T) {
	rep := fixtureReport(t, "deadline")
	checkGolden(t, findingStrings(rep), []string{
		"deadline/deadline.go:14: [deadlinebeforeio] conn.Read on a net.Conn with no dominating Set{,Read,Write}Deadline in readNaked: unbounded I/O is the slow-loris attack surface",
		"deadline/deadline.go:27: [deadlinebeforeio] conn conn demoted to io.Reader by call to bufio.NewReader in demote, which never arms a deadline: wrap-then-read with no deadline is unbounded I/O",
		"deadline/deadline.go:38: [deadlinebeforeio] conn.SetDeadline error discarded: a deadline that failed to arm leaves the conn unbounded — drop the connection instead",
	})
}

func TestGuardedBy(t *testing.T) {
	rep := fixtureReport(t, "guardedby")
	checkGolden(t, findingStrings(rep), []string{
		"guardedby/guardedby.go:13: [guardedby] 'guarded by lock' names no field of this struct: the guard contract protects nothing",
		"guardedby/guardedby.go:23: [guardedby] c.n is guarded by mu but racy contains no preceding c.mu.Lock()",
		"guardedby/guardedby.go:40: [guardedby] 'guarded by nobody.mu' names no field of a struct of this package: the guard contract protects nothing",
		"guardedby/guardedby.go:50: [guardedby] p.points is guarded by owner.mu but bump contains no preceding <x>.mu.Lock()",
	})
}

func TestWallclock(t *testing.T) {
	rep := fixtureReport(t, "internal/cert")
	checkGolden(t, findingStrings(rep), []string{
		"internal/cert/clock.go:16: [wallclock] time.Now() reads the wall clock in epoch-sensitive package fixturemod/internal/cert: use the injected clock so expiry semantics stay deterministic",
		"internal/cert/clock.go:20: [wallclock] time.Since() reads the wall clock in epoch-sensitive package fixturemod/internal/cert: use the injected clock so expiry semantics stay deterministic",
	})
}

func TestBoundedDecode(t *testing.T) {
	rep := fixtureReport(t, "internal/roa")
	checkGolden(t, findingStrings(rep), []string{
		"internal/roa/roa.go:31: [boundeddecode] decoder UnmarshalNaked consumes attacker-sized parameter der with no len(der) comparison against a Max* limit: unbounded input is a resource-exhaustion primitive",
		"internal/roa/roa.go:36: [boundeddecode] decoder ParseLate consumes parameter der before its length limit check: the guard must dominate every use",
		"internal/roa/roa.go:58: [boundeddecode] decoder ParseWrongBound consumes attacker-sized parameter der with no len(der) comparison against a Max* limit: unbounded input is a resource-exhaustion primitive",
	})
}

// TestDiagExhaustive spans a plain diag package and one that imports obs:
// only the second must give every enum an obs event-kind table.
func TestDiagExhaustive(t *testing.T) {
	rep := fixtureReport(t, "diag", "diagobs")
	checkGolden(t, findingStrings(rep), []string{
		"diag/diag.go:27: [diagexhaustive] switch on fixturemod/diag.DiagKind has no default and misses: DiagStale — an unhandled diagnostic is a silent one",
		"diag/diag.go:45: [diagexhaustive] table keyed by fixturemod/diag.DiagKind misses: DiagStale — an unmapped diagnostic renders as nothing when it matters most",
		"diagobs/diagobs.go:19: [diagexhaustive] table keyed by fixturemod/diagobs.DiagKind misses: DiagStale — an unmapped diagnostic renders as nothing when it matters most",
		"diagobs/diagobs.go:25: [diagexhaustive] observable enum BreakerState has no obs event-kind table: every state this package can enter must map to a metric or flight-recorder event",
	})
}

// TestMetricsCoverage: the obs event-kind coverage check lives inside
// diagexhaustive, so running that rule alone over the obs-importing fixture
// must report both the table that misses a constant and the enum with no
// table, and nothing for the fully covered FetchDiag.
func TestMetricsCoverage(t *testing.T) {
	rules, err := RulesByName("diagexhaustive")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(fixturePackages(t, "diagobs"), rules, fixtures.root)
	checkGolden(t, findingStrings(rep), []string{
		"diagobs/diagobs.go:19: [diagexhaustive] table keyed by fixturemod/diagobs.DiagKind misses: DiagStale — an unmapped diagnostic renders as nothing when it matters most",
		"diagobs/diagobs.go:25: [diagexhaustive] observable enum BreakerState has no obs event-kind table: every state this package can enter must map to a metric or flight-recorder event",
	})
}

func TestSuppressions(t *testing.T) {
	rep := fixtureReport(t, "suppress")
	checkGolden(t, findingStrings(rep), []string{
		`suppress/suppress.go:17: [suppression] //lint:ignore names unknown rule "nosuchrule"`,
		"suppress/suppress.go:18: [uncheckedverify] error result of CheckThing is discarded: a dropped verification verdict admits unverified objects",
		"suppress/suppress.go:22: [suppression] //lint:ignore uncheckedverify has no reason: every exception must explain itself",
		"suppress/suppress.go:23: [uncheckedverify] error result of CheckThing is discarded: a dropped verification verdict admits unverified objects",
	})
	if rep.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (only the well-formed directive may suppress)", rep.Suppressed)
	}
	if len(rep.Suppressions) != 3 {
		t.Fatalf("got %d suppressions, want 3: %+v", len(rep.Suppressions), rep.Suppressions)
	}
	for i, wantUsed := range []bool{true, false, false} {
		if rep.Suppressions[i].Used != wantUsed {
			t.Errorf("suppression at line %d: Used = %v, want %v",
				rep.Suppressions[i].Line, rep.Suppressions[i].Used, wantUsed)
		}
	}
}

func TestLockOrder(t *testing.T) {
	rep := fixtureReport(t, "lockorder")
	checkGolden(t, findingStrings(rep), []string{
		"lockorder/lockorder.go:20: [lockorder] lock-order cycle among {lockorder.A.mu, lockorder.B.mu}: lockorder.A.mu→lockorder.B.mu in lockorder.A.lockAB (lockorder.go:20); lockorder.B.mu→lockorder.A.mu in lockorder.B.lockBA (lockorder.go:29) — two goroutines interleaving these chains deadlock",
		"lockorder/lockorder.go:44: [lockorder] call to lockorder.C.inner may re-acquire lockorder.C.mu, which is already held: mutexes are not reentrant — same-shard re-entry deadlocks",
		"lockorder/lockorder.go:55: [lockorder] lockorder.C.mu acquired while already held (line 54): mutexes are not reentrant — same-shard re-entry deadlocks",
		"lockorder/lockorder.go:68: [lockorder] channel send while holding lockorder.D.mu: a peer that stalls this operation stalls every user of the lock",
		"lockorder/lockorder.go:85: [lockorder] call to lockorder.D.waitOne, which can block on channel receive, while holding lockorder.D.mu: a peer that stalls this operation stalls every user of the lock",
		"lockorder/lockorder.go:98: [lockorder] conn write while holding lockorder.D.mu: a peer that stalls this operation stalls every user of the lock",
		"lockorder/lockorder.go:123: [suppression] //lint:ignore lockorder has no reason: every exception must explain itself",
		"lockorder/lockorder.go:124: [lockorder] channel send while holding lockorder.D.mu: a peer that stalls this operation stalls every user of the lock",
	})
}

// TestLoaderBuildTags: a file excluded by //go:build must contribute
// neither declarations nor findings.
func TestLoaderBuildTags(t *testing.T) {
	pkgs := fixturePackages(t, "buildtag")
	if n := len(pkgs[0].Files); n != 1 {
		t.Errorf("loaded %d files, want 1 (excluded.go must be skipped)", n)
	}
	rep := Run(pkgs, Rules(), fixtures.root)
	checkGolden(t, findingStrings(rep), []string{})
}

// TestLoaderGenerics: type-parameterized code loads, type-checks, and is
// visible to the rules through instantiation.
func TestLoaderGenerics(t *testing.T) {
	rep := fixtureReport(t, "generics")
	checkGolden(t, findingStrings(rep), []string{
		"generics/generics.go:34: [uncheckedverify] error result of CheckEqual is discarded: a dropped verification verdict admits unverified objects",
	})
}

// TestRulesByName pins the -rules selector: subsets resolve, "all" and ""
// mean everything, unknown names error.
func TestRulesByName(t *testing.T) {
	all, err := RulesByName("")
	if err != nil || len(all) != len(Rules()) {
		t.Fatalf("RulesByName(\"\") = %d rules, err %v; want all %d", len(all), err, len(Rules()))
	}
	sub, err := RulesByName("lockorder,guardedby")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "guardedby" || sub[1].Name != "lockorder" {
		t.Errorf("subset = %v, want canonical order guardedby, lockorder", sub)
	}
	if _, err := RulesByName("nosuchrule"); err == nil {
		t.Error("unknown rule name must error")
	}
}

// TestRuleSubsetRun: running a subset only reports that subset's findings
// and still records timings for it (plus the shared call-graph build).
func TestRuleSubsetRun(t *testing.T) {
	rules, err := RulesByName("lockorder")
	if err != nil {
		t.Fatal(err)
	}
	// The guardedby fixture has findings of its own: a subset run must not
	// report them.
	rep := Run(fixturePackages(t, "lockorder", "guardedby"), rules, fixtures.root)
	for _, f := range rep.Findings {
		// Malformed //lint:ignore directives report under the suppression
		// pseudo-rule in every run; anything else must be lockorder.
		if !strings.Contains(f.String(), "[lockorder]") && !strings.Contains(f.String(), "[suppression]") {
			t.Errorf("subset run leaked finding: %s", f)
		}
	}
	if len(rep.Findings) == 0 {
		t.Error("lockorder subset should still find the fixture deadlocks")
	}
	names := make(map[string]bool)
	for _, tm := range rep.Timings {
		names[tm.Rule] = true
	}
	if len(names) != 2 || !names["lockorder"] || !names["callgraph"] {
		t.Errorf("timings = %v, want exactly lockorder and callgraph entries", names)
	}
}

// TestModuleSelfRun dogfoods the suite over this repository: the tree must
// be finding-free, and every //lint:ignore in it must actually suppress
// something — an unused suppression is stale documentation.
func TestModuleSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, path)
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	rep := Run(pkgs, Rules(), root)
	for _, f := range rep.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, s := range rep.Suppressions {
		if !s.Used {
			t.Errorf("%s:%d: //lint:ignore %s suppresses nothing: remove it",
				s.File, s.Line, strings.Join(s.Rules, ","))
		}
	}
}
