// Command vscheck reads a timed external trace (JSON lines, as written by
// tosim -trace) and checks it against the formal specifications: the VS
// events must form a trace of VS-machine (the Lemma 4.2 properties:
// integrity, no duplication, no reordering, per-view prefix total order,
// safe semantics), and the TO events must form a trace of TO-machine (one
// global total order, prefix delivery, per-sender FIFO).
//
// Usage:
//
//	go run ./cmd/tosim -n 5 -partition 0,1,2 -trace trace.jsonl
//	go run ./cmd/vscheck trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/props"
	"repro/internal/types"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vscheck <trace.jsonl>")
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

	// Reconstruct the universe and initial membership from the trace.
	universe := map[types.ProcID]bool{}
	for p := range log.Initial {
		universe[p] = true
	}
	for _, e := range log.Events {
		universe[e.P] = true
		if e.Kind == props.VSNewview {
			for _, m := range e.View.Set.Members() {
				universe[m] = true
			}
		}
	}
	var all []types.ProcID
	for p := range universe {
		all = append(all, p)
	}
	var p0 []types.ProcID
	for p := range log.Initial {
		p0 = append(p0, p)
	}

	vs, to, err := chaos.Conformance(log, types.NewProcSet(all...), types.NewProcSet(p0...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "VIOLATION:\n  %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace OK: %d VS events conform to VS-machine, %d TO events conform to TO-machine\n",
		vs.Events(), to.Events())
	fmt.Printf("global total order constructed: %d values\n", to.OrderLen())
}
