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

// TestExperimentsDocMatchesGolden finds every table of the golden verbatim
// in EXPERIMENTS.md's raw tables, so the document cannot drift from what
// the harness prints. The document's E17 is read back into a Table and
// masked as the golden's is (maskHost): its wall-clock cells are the
// host's.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/etables_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\nE17 — ") + 1
	end := start + strings.Index(doc[start:], "\nresult: ") + 1
	end += strings.IndexByte(doc[end:], '\n') + 1
	if start == 0 || end <= start {
		t.Fatal("EXPERIMENTS.md has no E17 table")
	}
	doc = doc[:start] + strings.TrimSuffix(maskHost([]*Table{parseTable(t, doc[start:end])}), "\n") + doc[end:]
	for _, table := range strings.Split(strings.TrimRight(string(golden), "\n"), "\n\n") {
		if !strings.Contains(doc, table+"\n") {
			t.Errorf("EXPERIMENTS.md does not hold the golden's table verbatim:\n%s", table)
		}
	}
}

// parseTable reads a table back from its Format text: the cells of a row
// start where the dash line's runs do.
func parseTable(t *testing.T, text string) *Table {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	id, title, _ := strings.Cut(lines[0], " — ")
	tbl := &Table{ID: id, Title: title, Claim: strings.TrimPrefix(lines[1], "claim: ")}
	var starts []int
	for i, c := range lines[3] {
		if c == '-' && lines[3][i-1] == ' ' {
			starts = append(starts, i)
		}
	}
	cells := func(line string) []string {
		var out []string
		for i, s := range starts {
			e := len(line)
			if i+1 < len(starts) {
				e = starts[i+1] - 2
			}
			out = append(out, strings.TrimRight(line[s:e], " "))
		}
		return out
	}
	tbl.Columns = cells(lines[2])
	for _, l := range lines[4:] {
		switch {
		case strings.HasPrefix(l, "note: "):
			tbl.Notes = append(tbl.Notes, strings.TrimPrefix(l, "note: "))
		case strings.HasPrefix(l, "FAIL: "):
			tbl.Failures = append(tbl.Failures, strings.TrimPrefix(l, "FAIL: "))
		case !strings.HasPrefix(l, "result: "):
			tbl.Rows = append(tbl.Rows, cells(l))
		}
	}
	return tbl
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
