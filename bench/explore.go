package main

import (
	"fmt"
	"runtime"
	"time"
)

// explore.bounded: vstoto.Explore on the n = 2 / 2 bcasts / 1 view
// configuration, POR off, Workers = nproc, truncated at exploreStates so
// one call takes about half a second and a window holds a few dozen. One
// call is one op; its latency is the time a developer waits for a bounded
// check. It touches nothing on the data path, so data-path changes predict
// no movement here.

const exploreStates = 5000

// exploreTestStates is the truncation bench_test.go boots the workload with.
const exploreTestStates = 200

// explorePinned is the exact extent of the truncated search, per MaxStates;
// the counts are machine-independent (canonical fingerprints, deterministic
// wave merge), so any difference is a behaviour change in the explorer.
type exploreExtent struct{ states, edges, depth, skipped int }

var explorePinned = map[int]exploreExtent{
	exploreStates:     {5000, 17042, 13, 5477},
	exploreTestStates: {200, 731, 6, 343},
}

type exploreSystem struct {
	traced bool
	reg    *registry
	states int
}

// bootExplore boots the workload truncated at states, which must have a
// pinned extent.
func bootExplore(states int) func(e *env, traced bool) (system, error) {
	return func(e *env, traced bool) (system, error) {
		s := &exploreSystem{traced: traced, states: states}
		if traced {
			s.reg = newRegistry()
		}
		// The probe: the search reaches its first wave's states.
		if _, err := exploreBounded(16, runtime.GOMAXPROCS(0), nil); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		return s, nil
	}
}

func (s *exploreSystem) close() {}

func (s *exploreSystem) measure(e *env) (*pass, error) {
	cpu0 := cpuSeconds()
	alloc0 := totalAlloc()
	start := time.Now()
	p := &pass{}
	states := 0
	var last exploreRes
	for !e.stopped(start, p.attempted) {
		t0 := time.Now()
		res, err := exploreBounded(s.states, runtime.GOMAXPROCS(0), s.reg)
		if err != nil {
			return nil, fmt.Errorf("explore: invariant or simulation violation: %w", err)
		}
		p.latencyMS = append(p.latencyMS, ms(time.Since(t0)))
		p.attempted++
		got := exploreExtent{res.States, res.Edges, res.MaxDepth, res.SkippedEdges}
		if want := explorePinned[s.states]; got != want || !res.Truncated {
			return nil, fmt.Errorf("explore: extent %+v differs from the pinned %+v", got, want)
		}
		states += res.States
		last = res
	}
	elapsed := time.Since(start)
	cpu := cpuSeconds() - cpu0
	alloc1 := totalAlloc()
	p.throughput = float64(states) / elapsed.Seconds()
	p.heapMB = retainedHeapMB()
	p.cpuMSPerOp = cpu * 1000 / float64(p.attempted)
	p.digest = fmt.Sprintf("%d/%d/%d/%d", last.States, last.Edges, last.MaxDepth, last.SkippedEdges)
	p.describe = func(p *pass) {
		lat := p.lat
		p.add("explore_states_per_s", p.throughput, "1/s", states, fmt.Sprintf("wall; %d workers; %.2f CPU-s over %.2f s; %d states %d edges depth %d per call (pinned)", runtime.GOMAXPROCS(0), cpu, elapsed.Seconds(), last.States, last.Edges, last.MaxDepth))
		p.add("explore_call_ms_p50", lat.P50, "ms", lat.N, "wall; one bounded exploration")
		p.add("explore_call_ms_"+pctName(lat.TailQ), lat.Tail, "ms", lat.N, "wall")
	}
	if s.traced {
		snap := s.reg.Snapshot()
		p.registry = snap
		p.layers = map[string]float64{
			"explore_edges_per_state": ratio(counter(snap, "explore.edges"), counter(snap, "explore.states")),
			"explore_waves_per_call":  ratio(counter(snap, "explore.waves"), float64(p.attempted)),
			"alloc_bytes_per_op":      ratio(float64(alloc1-alloc0), float64(states)),
		}
	}
	return p, nil
}
