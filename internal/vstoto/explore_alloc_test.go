package vstoto

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// allocSources runs cfg with every allocation sampled and renders the
// functions that allocated most, by bytes, with their share of the run's
// objects and bytes. An allocation is charged to its innermost frame
// outside the runtime and the generic slices and maps helpers. A warm run
// reuses the storage of a call made before, which it holds across the
// profile's collections.
func allocSources(t *testing.T, cfg ExploreConfig, top int, warm bool) string {
	t.Helper()
	type site struct{ objs, bytes int64 }
	profile := func() map[string]site {
		runtime.GC()
		runtime.GC() // a profile is published one cycle late
		var recs []runtime.MemProfileRecord
		n, _ := runtime.MemProfile(nil, true)
		for {
			recs = make([]runtime.MemProfileRecord, n+64)
			var ok bool
			if n, ok = runtime.MemProfile(recs, true); ok {
				recs = recs[:n]
				break
			}
		}
		out := map[string]site{}
		for _, r := range recs {
			fn := "?"
			frames := runtime.CallersFrames(r.Stack())
			for {
				f, more := frames.Next()
				if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/") &&
					!strings.HasPrefix(f.Function, "slices.") && !strings.HasPrefix(f.Function, "maps.") {
					fn = f.Function
					break
				}
				if !more {
					break
				}
			}
			s := out[fn]
			s.objs += r.AllocObjects
			s.bytes += r.AllocBytes
			out[fn] = s
		}
		return out
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var held any
	if warm {
		if _, err := Explore(cfg); err != nil {
			t.Fatal(err)
		}
		held = explorePool.Get()
	}
	before := profile()
	if held != nil {
		explorePool.Put(held)
	}
	if _, err := Explore(cfg); err != nil {
		t.Fatal(err)
	}
	after := profile()
	var fns []string
	var total site
	for fn, s := range after {
		s.objs -= before[fn].objs
		s.bytes -= before[fn].bytes
		after[fn] = s
		total.objs += s.objs
		total.bytes += s.bytes
		if s.bytes > 0 {
			fns = append(fns, fn)
		}
	}
	slices.SortFunc(fns, func(a, b string) int { return int(after[b].bytes - after[a].bytes) })
	var b strings.Builder
	for _, fn := range fns[:min(top, len(fns))] {
		s := after[fn]
		fmt.Fprintf(&b, "  %5.1f%% of objects  %5.1f%% of bytes  %s\n",
			100*float64(s.objs)/float64(max(total.objs, 1)), 100*float64(s.bytes)/float64(max(total.bytes, 1)), fn)
	}
	return b.String()
}

// TestExploreAllocBudget is the explorer's executable allocation budget on
// the explore.bounded configuration: the objects and bytes a cold Explore
// call (the first, which builds the storage later calls reuse) allocates
// per state it keeps. Most of it is the two generations' storage, sized by
// the two widest waves (2.1 objects and 883 B measured). It fails if
// either grows past the budget, printing the functions that allocate most.
func TestExploreAllocBudget(t *testing.T) { checkExploreAllocBudget(t, false, 4, 900) }

// TestExploreWarmAllocBudget is TestExploreAllocBudget for a warm call:
// the second of two in a row, with no collection between them, which
// allocates only what the successors it keeps move to the heap (their
// processors' effects, the summaries they send, f where it changes) and
// the call's fixed cost. The budget is the measured 2.0 objects and 109 B
// plus about a fifth.
func TestExploreWarmAllocBudget(t *testing.T) { checkExploreAllocBudget(t, true, 2.4, 130) }

func checkExploreAllocBudget(t *testing.T, warm bool, allocsBudget, bytesBudget float64) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	// explore.bounded's configuration (n = 2, 2 bcasts, one 2-member view,
	// POR off, truncated at 5 000 states) on one worker, so that every
	// allocation is the explorer's own.
	cfg := ExploreConfig{N: 2, MaxBcasts: 2, MaxStates: 5000, Workers: 1, Views: []types.View{
		{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)},
	}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the pool: a cold call builds its storage
	if warm {
		if _, err := Explore(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&before)
	res, err := Explore(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 5000 || res.Edges != 17042 {
		t.Fatalf("extent %d states %d edges, want the pinned 5000 and 17042", res.States, res.Edges)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(res.States)
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.States)
	t.Logf("%.1f allocations and %.0f B per state (%d states, %d edges)", allocs, perState, res.States, res.Edges)
	if allocs > allocsBudget || perState > bytesBudget {
		t.Errorf("%.1f allocations and %.0f B per state, budget %.1f and %.0f B; top sources by bytes:\n%s",
			allocs, perState, allocsBudget, bytesBudget, allocSources(t, cfg, 12, warm))
	}
}
