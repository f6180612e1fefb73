package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExperimentsGolden pins every experiment's rendering, exactly as
// `rpki-experiments -run all` prints it, to testdata/all.golden: a change of
// substrate under an experiment (how its relying party fetches, say) must
// leave every artifact byte-identical. Regenerate with -update only for a
// change that is meant to alter an artifact.
func TestExperimentsGolden(t *testing.T) {
	results, err := Run("all")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	passed := 0
	for _, r := range results {
		fmt.Fprintln(&sb, r)
		if r.Passed() {
			passed++
		}
	}
	fmt.Fprintf(&sb, "%d/%d experiments passed all shape checks\n", passed, len(results))
	got := sb.String()

	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("experiment output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEveryExperimentPasses runs the full harness: every paper artifact
// must regenerate with all shape checks green. This is the repository's
// headline integration test.
func TestEveryExperimentPasses(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if r.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", r.ID, e.ID)
			}
			if !r.Passed() {
				for _, c := range r.Failed() {
					t.Errorf("shape check %q failed: %s", c.Name, c.Detail)
				}
				t.Logf("full result:\n%s", r)
			}
			if r.Text == "" {
				t.Error("experiment produced no artifact text")
			}
		})
	}
}

func TestRunByID(t *testing.T) {
	results, err := Run("table6")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "table6" {
		t.Fatalf("got %v", results)
	}
	if _, err := Run("nonsense"); err == nil {
		t.Error("unknown ID must fail")
	}
}

func TestResultString(t *testing.T) {
	r, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"table6", "drop invalid", "depref invalid", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q", want)
		}
	}
}

func TestTable6ShapeMatchesPaper(t *testing.T) {
	r, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 6 in numbers.
	if r.Metrics["reach_drop-invalid_subprefix-hijack"] != 1.0 {
		t.Error("drop-invalid must fully survive the routing attack")
	}
	if r.Metrics["reach_drop-invalid_rpki-manipulation"] != 0.0 {
		t.Error("drop-invalid must fully lose the manipulated prefix")
	}
	if r.Metrics["reach_depref-invalid_rpki-manipulation"] != 1.0 {
		t.Error("depref-invalid must fully survive the manipulation")
	}
	if r.Metrics["reach_depref-invalid_subprefix-hijack"] >= 1.0 {
		t.Error("depref-invalid must be hijackable")
	}
}

func TestFigure5Metrics(t *testing.T) {
	r, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["right_unknown"] != 0 {
		t.Error("the covering ROA eliminates unknowns inside the /12")
	}
	if r.Metrics["right_invalid"] <= r.Metrics["left_invalid"] {
		t.Error("Side Effect 5: invalid count must grow")
	}
}
