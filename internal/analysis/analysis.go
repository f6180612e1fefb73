package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A Rule is one domain invariant checked over typed ASTs. Intraprocedural
// rules set Run and are invoked once per package; whole-program rules set
// RunProgram and are invoked once per Run with the shared call graph. A
// rule may set both.
type Rule struct {
	// Name is the rule identifier used in findings and //lint:ignore.
	Name string
	// Doc is a one-line description of the invariant the rule enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole program through its call graph.
	RunProgram func(*ProgramPass)
}

// Rules returns the full suite, in canonical order.
func Rules() []*Rule {
	return []*Rule{
		uncheckedVerifyRule,
		deadlineBeforeIORule,
		guardedByRule,
		wallclockRule,
		diagExhaustiveRule,
		boundedDecodeRule,
		lockOrderRule,
	}
}

// RulesByName resolves a comma-separated rule subset ("guardedby,lockorder")
// against the full suite, preserving canonical order. An empty or "all"
// selector returns every rule.
func RulesByName(selector string) ([]*Rule, error) {
	if selector == "" || selector == "all" {
		return Rules(), nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(selector, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var out []*Rule
	for _, r := range Rules() {
		if want[r.Name] {
			out = append(out, r)
			delete(want, r.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("analysis: unknown rule(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// ruleNames returns the set of valid rule names (for suppression checking).
func ruleNames() map[string]bool {
	names := make(map[string]bool)
	for _, r := range Rules() {
		names[r.Name] = true
	}
	return names
}

// Pass is the per-(rule, package) context handed to Rule.Run.
type Pass struct {
	Pkg  *Package
	rule string
	out  *Report
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.out.add(p.Pkg.Fset, pos, p.rule, fmt.Sprintf(format, args...))
}

// ProgramPass is the per-rule whole-program context handed to
// Rule.RunProgram.
type ProgramPass struct {
	Prog *Program
	rule string
	out  *Report
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.out.add(p.Prog.Fset, pos, p.rule, fmt.Sprintf(format, args...))
}

// Finding is one rule violation.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the canonical "file:line: [rule] message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// Suppression is one //lint:ignore directive found in the analyzed source.
type Suppression struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Rules  []string `json:"rules"`
	Reason string   `json:"reason"`
	// Used reports whether the directive actually suppressed a finding.
	Used bool `json:"used"`
}

// RuleTiming is one rule's wall time over the whole run (all packages for
// per-package rules, the single whole-program pass for program rules).
// The pseudo-rule "callgraph" accounts for building the Program.
type RuleTiming struct {
	Rule   string  `json:"rule"`
	Millis float64 `json:"millis"`
}

// Report is the outcome of one analysis run.
type Report struct {
	// Findings are the surviving (unsuppressed) findings, canonically
	// ordered by file, line, column, rule.
	Findings []Finding `json:"findings"`
	// Suppressions lists every //lint:ignore directive encountered.
	Suppressions []Suppression `json:"suppressions"`
	// Suppressed counts findings silenced by a directive.
	Suppressed int `json:"suppressed"`
	// SuppressionInventory is the suppression set in a canonical
	// line-diffable form — "rule file:line reason" sorted — so CI can diff
	// the exception surface across PRs and review every addition.
	SuppressionInventory []string `json:"suppression_inventory"`
	// Timings reports per-rule wall time, sorted by rule name.
	Timings []RuleTiming `json:"timings"`

	baseDir string
}

func (r *Report) add(fset *token.FileSet, pos token.Pos, rule, message string) {
	p := fset.Position(pos)
	r.Findings = append(r.Findings, Finding{
		File:    r.relFile(p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Rule:    rule,
		Message: message,
	})
}

// relFile makes file names stable and readable: relative to the run's base
// directory when possible.
func (r *Report) relFile(name string) string {
	if r.baseDir == "" {
		return name
	}
	if rel, err := filepath.Rel(r.baseDir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// SuppressionRule is the pseudo-rule under which malformed //lint:ignore
// directives are reported. It is not itself suppressible: an exception that
// cannot explain itself must not be able to silence the complaint about it.
const SuppressionRule = "suppression"

// Run executes every rule over every package and resolves suppressions.
// baseDir (usually the module root) relativizes file names in the output.
// Program rules run once over the whole package set; the call graph is
// built only when at least one selected rule needs it.
func Run(pkgs []*Package, rules []*Rule, baseDir string) *Report {
	report := &Report{baseDir: baseDir}
	elapsed := make(map[string]time.Duration)

	var prog *Program
	for _, rule := range rules {
		if rule.RunProgram != nil {
			start := time.Now()
			prog = BuildProgram(pkgs)
			elapsed["callgraph"] = time.Since(start)
			break
		}
	}
	for _, rule := range rules {
		start := time.Now()
		if rule.Run != nil {
			for _, pkg := range pkgs {
				rule.Run(&Pass{Pkg: pkg, rule: rule.Name, out: report})
			}
		}
		if rule.RunProgram != nil {
			rule.RunProgram(&ProgramPass{Prog: prog, rule: rule.Name, out: report})
		}
		elapsed[rule.Name] += time.Since(start)
	}
	for name, d := range elapsed {
		report.Timings = append(report.Timings, RuleTiming{Rule: name, Millis: float64(d.Nanoseconds()) / 1e6})
	}
	sort.Slice(report.Timings, func(i, j int) bool { return report.Timings[i].Rule < report.Timings[j].Rule })

	report.applySuppressions(pkgs)
	sort.Slice(report.Findings, func(i, j int) bool {
		a, b := report.Findings[i], report.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return report
}

// applySuppressions collects //lint:ignore directives from every file,
// validates them (unknown rule names and missing reasons are findings), and
// drops the findings they cover. A directive covers findings on its own
// line and on the line below it, so both trailing and preceding placement
// work.
func (r *Report) applySuppressions(pkgs []*Package) {
	known := ruleNames()
	type key struct {
		file string
		line int
		rule string
	}
	covered := make(map[key]*Suppression)
	var suppressions []*Suppression
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fname := r.relFile(pos.Filename)
					fields := strings.Fields(text)
					if len(fields) == 0 {
						r.Findings = append(r.Findings, Finding{
							File: fname, Line: pos.Line, Col: pos.Column, Rule: SuppressionRule,
							Message: "//lint:ignore needs a rule name and a reason",
						})
						continue
					}
					rules := strings.Split(fields[0], ",")
					reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
					sup := &Suppression{File: fname, Line: pos.Line, Rules: rules, Reason: reason}
					suppressions = append(suppressions, sup)
					bad := false
					for _, rule := range rules {
						if !known[rule] {
							r.Findings = append(r.Findings, Finding{
								File: fname, Line: pos.Line, Col: pos.Column, Rule: SuppressionRule,
								Message: fmt.Sprintf("//lint:ignore names unknown rule %q", rule),
							})
							bad = true
						}
					}
					if reason == "" {
						r.Findings = append(r.Findings, Finding{
							File: fname, Line: pos.Line, Col: pos.Column, Rule: SuppressionRule,
							Message: fmt.Sprintf("//lint:ignore %s has no reason: every exception must explain itself", fields[0]),
						})
						bad = true
					}
					if bad {
						continue // a malformed directive suppresses nothing
					}
					for _, rule := range rules {
						covered[key{fname, pos.Line, rule}] = sup
						covered[key{fname, pos.Line + 1, rule}] = sup
					}
				}
			}
		}
	}
	kept := r.Findings[:0]
	for _, f := range r.Findings {
		if f.Rule != SuppressionRule {
			if sup := covered[key{f.File, f.Line, f.Rule}]; sup != nil {
				sup.Used = true
				r.Suppressed++
				continue
			}
		}
		kept = append(kept, f)
	}
	r.Findings = kept
	for _, sup := range suppressions {
		r.Suppressions = append(r.Suppressions, *sup)
	}
	sort.Slice(r.Suppressions, func(i, j int) bool {
		a, b := r.Suppressions[i], r.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	// One line per (rule, site): stable under reordering of the source
	// list, so "diff old.inventory new.inventory" in CI shows exactly the
	// exceptions a PR adds or removes.
	for _, sup := range r.Suppressions {
		for _, rule := range sup.Rules {
			r.SuppressionInventory = append(r.SuppressionInventory,
				fmt.Sprintf("%s %s:%d %s", rule, sup.File, sup.Line, sup.Reason))
		}
	}
	sort.Strings(r.SuppressionInventory)
}

// enclosingFuncs indexes a file's top-level function declarations so rules
// can attribute an arbitrary position to the function (closures included)
// that contains it.
type funcIndex struct {
	decls []*ast.FuncDecl
}

func indexFuncs(file *ast.File) *funcIndex {
	idx := &funcIndex{}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			idx.decls = append(idx.decls, fd)
		}
	}
	return idx
}

func (idx *funcIndex) enclosing(pos token.Pos) *ast.FuncDecl {
	for _, fd := range idx.decls {
		if fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
