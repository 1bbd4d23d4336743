package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsValidate regenerates every evaluation table and
// requires each claim to validate. This is the repository's end-to-end
// "reproduction gate"; it runs the same harness as cmd/experiments.
func TestAllExperimentsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short mode")
	}
	for _, tbl := range AllWorkers(1, 1) {
		tbl := tbl
		t.Run(tbl.ID, func(t *testing.T) {
			if len(tbl.Failures) > 0 {
				t.Fatalf("%s failed validation:\n%s", tbl.ID, strings.Join(tbl.Failures, "\n"))
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", tbl.ID)
			}
		})
	}
}

// TestExperimentsDeterministic: the same seed regenerates the identical
// tables (the whole harness is simulator-backed).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	a := e4(7, 1).Format()
	b := e4(7, 1).Format()
	if a != b {
		t.Fatalf("E4 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "title", Claim: "claim",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"a note"},
	}
	out := tbl.Format()
	for _, want := range []string{"EX — title", "claim: claim", "a note", "result: claim validated"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	tbl.Failures = append(tbl.Failures, "boom")
	if out := tbl.Format(); !strings.Contains(out, "FAIL: boom") || strings.Contains(out, "validated") {
		t.Errorf("failure formatting wrong:\n%s", out)
	}
}
