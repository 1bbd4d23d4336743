package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// suite runs every experiment once per test binary at seed 1; the
// validation gate and the golden comparison both read it.
var suite = sync.OnceValue(func() []*Table { return AllWorkers(1, 1) })

// TestAllExperimentsValidate regenerates every evaluation table and
// requires each claim to validate. This is the repository's end-to-end
// "reproduction gate"; it runs the same harness as cmd/experiments.
func TestAllExperimentsValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short mode")
	}
	for _, tbl := range suite() {
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

// maskHost renders tables the way cmd/experiments prints them, with the
// cells a host measures rather than the seed decides replaced by "*":
// E17's throughput-phase wall time and rate, and its speedup note. The
// masking happens on the Table, so column widths depend on the seed alone.
func maskHost(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		m := *t
		if m.ID == "E17" {
			m.Rows = make([][]string, len(t.Rows))
			for i, row := range t.Rows {
				m.Rows[i] = append([]string(nil), row...)
				if row[0] == "throughput" {
					m.Rows[i][3], m.Rows[i][4] = "*", "*"
				}
			}
			m.Notes = append([]string(nil), t.Notes...)
			for i, n := range m.Notes {
				if strings.HasPrefix(n, "SKIP:") || strings.HasPrefix(n, "4-worker") {
					m.Notes[i] = "*"
				}
			}
		}
		b.WriteString(m.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestETablesMatchGolden pins every E-table cell at seed 1 against
// testdata/etables_seed1.golden, so a refactor of the harness that moves
// any measurement, verdict or note fails here. The host-dependent cells
// are masked (maskHost).
func TestETablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/etables_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := maskHost(suite())
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("E-tables differ from the golden at line %d:\n got: %q\nwant: %q\nfull output:\n%s", i+1, gl, wl, got)
		}
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
