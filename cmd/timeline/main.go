// Command timeline renders a recorded trace (JSON lines, as produced by
// tosim -trace) as a per-processor text timeline, making partition and
// merge dynamics visible at a glance.
//
// Usage:
//
//	go run ./cmd/tosim -n 5 -partition 0,1,2 -heal 500ms -trace trace.jsonl
//	go run ./cmd/timeline -bucket 20ms trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

func main() {
	bucket := flag.Duration("bucket", 10*time.Millisecond, "time bucket per row")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: timeline [-bucket 10ms] <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	log, err := props.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(render(log, *bucket))
}

// render produces the timeline text for a log: one column per
// processor, one row per time bucket with content, with marks for view
// changes, sends, deliveries, safe indications and client events.
func render(log *props.Log, bucket time.Duration) string {
	procs := map[types.ProcID]bool{}
	for p := range log.Initial {
		procs[p] = true
	}
	var end sim.Time
	for _, e := range log.Events {
		procs[e.P] = true
		if e.T > end {
			end = e.T
		}
	}
	var ids []types.ProcID
	for p := range procs {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	col := map[types.ProcID]int{}
	for i, p := range ids {
		col[p] = i
	}

	const width = 16
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-10s", "time"))
	for _, p := range ids {
		b.WriteString(fmt.Sprintf("%-*s", width, p.String()))
	}
	b.WriteByte('\n')

	nBuckets := int(end.Duration()/bucket) + 1
	cells := make([][]string, nBuckets)
	for i := range cells {
		cells[i] = make([]string, len(ids))
	}
	add := func(t sim.Time, p types.ProcID, mark string) {
		i := int(t.Duration() / bucket)
		c := &cells[i][col[p]]
		if strings.Contains(*c, mark) && len(mark) == 1 {
			return
		}
		if len(*c)+len(mark) <= width-2 {
			*c += mark
		}
	}
	for _, e := range log.Events {
		switch e.Kind {
		case props.VSNewview:
			add(e.T, e.P, fmt.Sprintf("∇%v|%d ", e.View.ID, e.View.Set.Size()))
		case props.VSGpsnd:
			add(e.T, e.P, "s")
		case props.VSGprcv:
			add(e.T, e.P, "r")
		case props.VSSafe:
			add(e.T, e.P, "✓")
		case props.TOBcast:
			add(e.T, e.P, "B")
		case props.TOBrcv:
			add(e.T, e.P, "D")
		}
	}
	for i, row := range cells {
		empty := true
		for _, c := range row {
			if c != "" {
				empty = false
			}
		}
		if empty {
			continue
		}
		b.WriteString(fmt.Sprintf("%-10s", time.Duration(i)*bucket))
		for _, c := range row {
			b.WriteString(fmt.Sprintf("%-*s", width, c))
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nlegend: ∇g|n = newview (id, size), B bcast, D client delivery, s gpsnd, r gprcv, ✓ safe\n")
	return b.String()
}
