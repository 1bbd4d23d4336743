package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much b is worse than a, as a share of a, in the
// direction the metric's "better" names (negative: b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per (workload, end-to-end metric) present in both
// files, b's change against a and the metric's bound, marks every pairing
// outside its bound, and fails if there is one. failed counts may not rise
// at all.
func compareFiles(pathA, pathB string) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1])
}

func compareResults(a, b *resultFile) int {
	fmt.Printf("a: %v\nb: %v\n", a.Env, b.Env)
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	outside, compared := 0, 0
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil || ra.Trace != rb.Trace {
			continue
		}
		for _, m := range endToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			compared++
			w := worsening(m.Better, va.Value, vb.Value)
			mark := ""
			if w > m.Bound {
				mark = "  <-- OUTSIDE BOUND"
				outside++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", ra.Workload, m.Name, va.Value, vb.Value, 100*w, 100*m.Bound, mark)
		}
		if fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted)); fb > fa {
			fmt.Printf("%-16s %-18s %14.6f %14.6f  <-- failed_frac rose\n", ra.Workload, "failed_frac", fa, fb)
			outside++
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no (workload, metric) pairing")
		return 2
	}
	if outside > 0 {
		fmt.Printf("%d pairing(s) outside their bound\n", outside)
		return 1
	}
	fmt.Println("every pairing within its bound")
	return 0
}
