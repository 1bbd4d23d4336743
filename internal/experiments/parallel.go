package experiments

import (
	"strings"

	"repro/internal/sweep"
)

// trial is one independent experiment configuration's contribution to a
// table: its rows plus any bound violations. Trials are produced
// concurrently by the sweep engine and appended in submission order, so a
// parallel table is byte-for-byte the serial one.
type trial struct {
	rows     [][]string
	failures []string
}

// appendTrials runs n independent trials across the given worker count and
// folds their rows and failures into t in submission order. run must be a
// pure function of its index (each trial builds its own cluster and
// simulator), which is what makes the fan-out sound: no trial observes
// another, so scheduling order cannot leak into the output.
func appendTrials(t *Table, workers, n int, run func(i int) trial) {
	for _, tr := range sweep.Run(workers, n, run) {
		t.Rows = append(t.Rows, tr.rows...)
		t.Failures = append(t.Failures, tr.failures...)
	}
}

// runner is one entry of the experiment index: an ID plus a
// workers-parameterized table generator.
type runner struct {
	id string
	fn func(seed int64, workers int) *Table
}

// runnerList is the experiment index in report order. Only the experiments
// with sweep-parallel trial loops take a meaningful workers argument; the
// rest adapt their serial form.
var runnerList = []runner{
	{"E1", e1},
	{"E2", e2},
	{"E3", func(s int64, _ int) *Table { return E3(s) }},
	{"E4", e4},
	{"E5", func(s int64, _ int) *Table { return E5(s) }},
	{"E6", func(s int64, _ int) *Table { return E6(s) }},
	{"E7", func(s int64, _ int) *Table { return E7(s) }},
	{"E8", func(s int64, _ int) *Table { return E8(s) }},
	{"E9", func(s int64, _ int) *Table { return E9(s) }},
	{"E10", func(s int64, _ int) *Table { return E10(s) }},
	{"E11", func(s int64, _ int) *Table { return E11(s) }},
	{"E12", func(s int64, _ int) *Table { return E12(s) }},
	{"E13", func(s int64, _ int) *Table { return E13(s) }},
	{"E14", func(s int64, _ int) *Table { return E14(s) }},
	{"E15", func(s int64, _ int) *Table { return E15(s) }},
	{"E16", func(s int64, _ int) *Table { return E16(s) }},
	{"E17", func(s int64, _ int) *Table { return E17(s) }},
}

// Runner looks up one experiment by ID ("E1".."E17", case-insensitive) as a
// workers-parameterized function.
func Runner(id string) (func(seed int64, workers int) *Table, bool) {
	id = strings.ToUpper(id)
	for _, r := range runnerList {
		if r.id == id {
			return r.fn, true
		}
	}
	return nil, false
}

// IDs returns the experiment IDs in report order.
func IDs() []string {
	ids := make([]string, len(runnerList))
	for i, r := range runnerList {
		ids[i] = r.id
	}
	return ids
}

// AllWorkers runs every experiment, fanning the independent experiments
// across the given number of workers (the per-experiment trial loops stay
// serial here — the outer fan-out already saturates the cores). The tables
// come back in report order and are identical for any worker count.
func AllWorkers(seed int64, workers int) []*Table {
	return sweep.Run(workers, len(runnerList), func(i int) *Table {
		return runnerList[i].fn(seed, 1)
	})
}
