package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// side is one result file's values of a metric on a workload, one per run.
type side []float64

func (s side) median() float64 { return median(s) }

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives — the measure the benchmark contract uses; 0 for fewer than two
// runs.
func (s side) spread() float64 {
	n := len(s)
	if n < 2 || s.median() == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / s.median()
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func (rep *report) side(workload, metric string) side {
	var s side
	for _, r := range rep.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			s = append(s, v.Value)
		}
	}
	return s
}

// verdict judges next against base by the metric's own bound: worse or
// better when the medians differ by more than the bound, unresolved when
// either side's own run-to-run spread exceeds it, same otherwise.
func verdict(base, next side, bound float64) string {
	switch ratio := next.median() / base.median(); {
	case base.spread() > bound || next.spread() > bound:
		return "unresolved"
	case ratio > 1+bound:
		return "worse"
	case ratio < 1-bound:
		return "better"
	}
	return "same"
}

func compareFiles(basePath, newPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	next, err := loadReport(newPath)
	if err != nil {
		return err
	}
	worse, err := compareReports(base, next)
	if err == nil && worse > 0 {
		err = fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return err
}

// compareReports prints base, new, ratio and verdict for every end-to-end
// metric on every workload and returns how many came out worse.
func compareReports(base, next *report) (worse int, err error) {
	fmt.Printf("%-15s %-26s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			b, n := base.side(w, d.Name), next.side(w, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			if b.median() == 0 {
				return worse, fmt.Errorf("%s %s: base median is 0", w, d.Name)
			}
			v := verdict(b, n, d.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-15s %-26s %12.4f %12.4f %7.3f %5.0f%%  %s (spread %.1f%% / %.1f%%, %d / %d runs)\n",
				w, d.Name, b.median(), n.median(), n.median()/b.median(), 100*d.Bound, v,
				100*b.spread(), 100*n.spread(), len(b), len(n))
		}
	}
	return worse, nil
}

// selfCheck runs the suite twice on this binary and compares the two sets:
// the repeatability the bounds presuppose. With out set, the two result
// files are kept as <out>_a.json and <out>_b.json.
func selfCheck(seed int64, seconds float64, runs int, out string) error {
	var reps [2]*report
	for i := range reps {
		rep, err := runSuite("all", seed, seconds, false, "", runs)
		if err != nil {
			return err
		}
		reps[i] = rep
		if out != "" {
			if err := writeReport(fmt.Sprintf("%s_%c.json", out, 'a'+i), rep); err != nil {
				return err
			}
		}
	}
	worse, err := compareReports(reps[0], reps[1])
	if err == nil && worse > 0 {
		err = fmt.Errorf("selfcheck: %d metrics differ by more than their bound between two runs of the same code", worse)
	}
	return err
}
