package chaos

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/sim"
)

func syntheticSchedule(n int) failures.Schedule {
	s := make(failures.Schedule, n)
	for i := range s {
		s[i] = failures.Event{Time: sim.Time(i + 1), Proc: 0, Status: failures.Bad}
		if i%2 == 1 {
			s[i] = failures.Event{Time: sim.Time(i + 1), Channel: true,
				Pair: failures.Pair{From: 0, To: 1}, Status: failures.Ugly}
		}
	}
	return s
}

func TestShrinkToSingleEvent(t *testing.T) {
	s := syntheticSchedule(37)
	target := s[19]
	min, st := Shrink(s, func(c failures.Schedule) bool {
		for _, e := range c {
			if e == target {
				return true
			}
		}
		return false
	}, 0)
	if len(min) != 1 || min[0] != target {
		t.Fatalf("minimized to %v, want exactly [%v]", min, target)
	}
	if st.From != 37 || st.To != 1 || st.Runs == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShrinkToEventPair(t *testing.T) {
	// The failure needs two widely separated events: ddmin must keep both
	// and drop the other 58.
	s := syntheticSchedule(60)
	a, b := s[3], s[51]
	min, _ := Shrink(s, func(c failures.Schedule) bool {
		hasA, hasB := false, false
		for _, e := range c {
			hasA = hasA || e == a
			hasB = hasB || e == b
		}
		return hasA && hasB
	}, 0)
	if len(min) != 2 || min[0] != a || min[1] != b {
		t.Fatalf("minimized to %v, want [%v %v]", min, a, b)
	}
}

func TestShrinkPreservesOrderAndSubsequence(t *testing.T) {
	s := syntheticSchedule(24)
	min, _ := Shrink(s, func(c failures.Schedule) bool { return len(c) >= 5 }, 0)
	if len(min) != 5 {
		t.Fatalf("minimized to %d events, want 5", len(min))
	}
	// Subsequence check: every kept event appears in the original, in order.
	j := 0
	for _, e := range min {
		for j < len(s) && s[j] != e {
			j++
		}
		if j == len(s) {
			t.Fatalf("minimized schedule is not a subsequence: %v", min)
		}
		j++
	}
}

func TestShrinkFaultIndependentBug(t *testing.T) {
	// A predicate true even on the empty schedule: the minimal
	// counterexample is "no faults at all".
	min, st := Shrink(syntheticSchedule(10), func(failures.Schedule) bool { return true }, 0)
	if len(min) != 0 {
		t.Fatalf("want empty schedule, got %v", min)
	}
	if st.Runs != 2 {
		t.Errorf("expected exactly 2 probe runs, got %d", st.Runs)
	}
}

func TestShrinkUnreproducibleReturnsInput(t *testing.T) {
	s := syntheticSchedule(10)
	min, st := Shrink(s, func(failures.Schedule) bool { return false }, 0)
	if len(min) != len(s) {
		t.Fatalf("unreproducible failure was 'minimized' to %v", min)
	}
	if st.Runs != 1 {
		t.Errorf("expected a single probe run, got %d", st.Runs)
	}
}

func TestShrinkRespectsRunCap(t *testing.T) {
	s := syntheticSchedule(64)
	runs := 0
	min, st := Shrink(s, func(c failures.Schedule) bool {
		runs++
		return len(c) > 0 // any non-empty subset fails: would shrink to 1 given budget
	}, 5)
	if st.Runs > 5 {
		t.Fatalf("evaluated %d candidates, cap was 5", st.Runs)
	}
	if runs != st.Runs {
		t.Errorf("stats runs %d != observed %d", st.Runs, runs)
	}
	if len(min) == 0 {
		t.Error("cap of 5 cannot reach the empty schedule from 64 events")
	}
}

// TestInjectedBugShrinksToMinimalReplayableCounterexample is the
// acceptance-criteria pipeline, end to end: an injected bug trips on a
// full campaign; delta debugging shrinks the schedule to the single
// responsible event; the minimized run serializes to an artifact; the
// artifact replays byte for byte with the identical violation. The mixed
// row's bug is a deliberately broken checker (it declares any run in which
// processor 1 ever crashed a violation); the process-level rows' bug is a
// broken recovery path (SkipRecoveryReplay), which the very schedules the
// live injector executes expose and ddmin reduces to one amnesia crash.
func TestInjectedBugShrinksToMinimalReplayableCounterexample(t *testing.T) {
	brokenChecker := func(r *Result) *Violation {
		for _, e := range r.Cluster.Oracle.History() {
			if !e.Channel && e.Proc == 1 && e.Status == failures.Bad {
				return &Violation{Check: "injected-bug", Detail: "processor 1 crashed during the run"}
			}
		}
		return nil
	}
	for _, row := range []struct {
		cfg       Config
		seeds     int64 // search seeds 1..seeds for the first failing run
		wantCheck string
		wantEvent func(failures.Event) bool
	}{
		{cfg: Config{Campaign: Mixed, N: 4, Window: 1200 * time.Millisecond, ExtraCheck: brokenChecker},
			seeds: 20, wantCheck: "injected-bug",
			wantEvent: func(e failures.Event) bool { return !e.Channel && e.Proc == 1 && e.Status == failures.Bad }},
		{cfg: Config{Campaign: KillWaves, N: 5, Window: 6 * time.Second, SkipRecoveryReplay: true},
			seeds: 1, wantCheck: "conformance",
			wantEvent: func(e failures.Event) bool { return !e.Channel && e.Status == failures.Amnesia }},
		{cfg: Config{Campaign: RollingRestart, N: 5, Window: 6 * time.Second, SkipRecoveryReplay: true},
			seeds: 1, wantCheck: "conformance",
			wantEvent: func(e failures.Event) bool { return !e.Channel && e.Status == failures.Amnesia }},
	} {
		row := row
		t.Run(string(row.cfg.Campaign), func(t *testing.T) {
			var first *Result
			for seed := int64(1); seed <= row.seeds; seed++ {
				t.Logf("seed %d", seed)
				cfg := row.cfg
				cfg.Seed = seed
				r := Run(cfg)
				if r.Failed() {
					if r.Violation.Check != row.wantCheck {
						t.Fatalf("seed %d: violation %v before the injected one", seed, r.Violation)
					}
					first = r
					break
				}
			}
			if first == nil {
				t.Fatalf("the injected bug survived %d seeds undetected", row.seeds)
			}

			min, st := ShrinkResult(first, 0)
			t.Logf("shrunk %d → %d events in %d runs", st.From, st.To, st.Runs)
			if !min.Failed() || min.Violation.Check != row.wantCheck {
				t.Fatalf("minimized run lost the violation: %v", min.Violation)
			}
			if len(min.Schedule) != 1 || !row.wantEvent(min.Schedule[0]) {
				t.Fatalf("minimal counterexample is %v, want exactly the one responsible event", min.Schedule)
			}

			// Artifact round trip and byte-for-byte replay. The injected bug
			// is not part of the artifact; the replay re-arms it.
			art := NewArtifact(min)
			enc, err := art.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeArtifact(enc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := back.Config()
			cfg.ExtraCheck, cfg.SkipRecoveryReplay = row.cfg.ExtraCheck, row.cfg.SkipRecoveryReplay
			replay := Run(cfg)
			if !replay.Failed() || replay.Violation.Check != row.wantCheck {
				t.Fatalf("replay lost the violation: %v", replay.Violation)
			}
			if replay.Msgs != min.Msgs || replay.Deliveries != min.Deliveries || replay.Net != min.Net {
				t.Fatalf("replay diverged: %+v vs %+v", replay, min)
			}
			enc2, err := NewArtifact(replay).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("replayed artifact differs from the original:\n%s\n%s", enc, enc2)
			}
		})
	}
}

// TestBrokenLivenessBoundShrinksToEmpty: with an absurd 1ns recovery
// bound, even a fault-free run violates liveness — the shrinker must
// report the empty schedule, diagnosing the bug as fault-independent.
func TestBrokenLivenessBoundShrinksToEmpty(t *testing.T) {
	r := Run(Config{Campaign: Mixed, Seed: 3, N: 4,
		Window: 1200 * time.Millisecond, RecoveryBound: time.Nanosecond})
	if !r.Failed() || r.Violation.Check != "recovery-liveness" {
		t.Fatalf("absurd bound did not trip liveness: %v", r.Violation)
	}
	min, _ := ShrinkResult(r, 0)
	if len(min.Schedule) != 0 {
		t.Fatalf("fault-independent bug minimized to %d events, want 0", len(min.Schedule))
	}
	if !min.Failed() || min.Violation.Check != "recovery-liveness" {
		t.Fatalf("minimized run lost the violation: %v", min.Violation)
	}
}
