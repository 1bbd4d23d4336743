package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/failures"
)

// sweepConfigs is the determinism workload: every campaign family, two
// seeds each, short windows so the whole sweep runs twice in a test (4s
// is the quorum-loss families' minimum).
func sweepConfigs() []Config {
	var cfgs []Config
	for _, ct := range Campaigns {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, Config{
				Campaign: ct, Seed: seed, N: 4, Window: max(2*time.Second, testWindow(ct)),
				Wire: seed%2 == 0,
			})
		}
	}
	return cfgs
}

// TestSweepMatchesSerial is the parallel-determinism gate: the full
// campaign sweep at workers=1 and workers=NumCPU must produce, run for
// run, byte-identical replay artifacts, identical check results, and an
// identical merged metric snapshot. Run under -race in CI, this also
// exercises the engine's cross-goroutine result handoff.
func TestSweepMatchesSerial(t *testing.T) {
	cfgs := sweepConfigs()
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 4 // still exercises the concurrent path on one core
	}
	serial := Sweep(cfgs, 1)
	parallel := Sweep(cfgs, workers)
	if len(serial) != len(cfgs) || len(parallel) != len(cfgs) {
		t.Fatalf("result counts: serial=%d parallel=%d want %d", len(serial), len(parallel), len(cfgs))
	}
	for i := range cfgs {
		s, p := serial[i], parallel[i]
		if (s.Violation == nil) != (p.Violation == nil) {
			t.Fatalf("run %d (%s seed %d): check results differ: serial=%v parallel=%v",
				i, cfgs[i].Campaign, cfgs[i].Seed, s.Violation, p.Violation)
		}
		sa, err := NewArtifact(s).Encode()
		if err != nil {
			t.Fatal(err)
		}
		pa, err := NewArtifact(p).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, pa) {
			t.Fatalf("run %d (%s seed %d): artifacts differ:\nserial:  %s\nparallel: %s",
				i, cfgs[i].Campaign, cfgs[i].Seed, sa, pa)
		}
	}
	sm, err := json.Marshal(MergedSnapshot(serial))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := json.Marshal(MergedSnapshot(parallel))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sm, pm) {
		t.Fatalf("merged metric snapshots differ:\nserial:  %s\nparallel: %s", sm, pm)
	}
}

// TestShrinkNMatchesSerial: with an ample budget, the wave-parallel ddmin
// must minimize to exactly the schedule the serial algorithm finds, at any
// worker count — the lowest-index failing candidate wins each round either
// way. workers=1 must also reproduce the serial run count exactly.
func TestShrinkNMatchesSerial(t *testing.T) {
	s := syntheticSchedule(41)
	a, b := s[5], s[33]
	fails := func(c failures.Schedule) bool {
		hasA, hasB := false, false
		for _, e := range c {
			hasA = hasA || e == a
			hasB = hasB || e == b
		}
		return hasA && hasB
	}
	want, wantStats := Shrink(s, fails, 0)
	for _, workers := range []int{1, 2, 3, 8} {
		got, st := ShrinkN(s, fails, 0, workers)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: minimized to %v, serial got %v", workers, got, want)
		}
		if workers == 1 && st != wantStats {
			t.Fatalf("workers=1 stats %+v differ from serial %+v", st, wantStats)
		}
		if st.To != wantStats.To || st.From != wantStats.From {
			t.Fatalf("workers=%d: stats %+v, serial %+v", workers, st, wantStats)
		}
	}
}
