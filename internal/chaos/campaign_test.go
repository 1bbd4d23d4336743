package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/stack"
	"repro/internal/types"
)

// testWindow is the short window of the quick tests; the process-level
// families need at least 2s, the quorum-loss ones 4s.
func testWindow(ct CampaignType) time.Duration {
	switch {
	case ct.QuorumLoss():
		return 4 * time.Second
	case ct.ProcessLevel():
		return 2 * time.Second
	}
	return 1200 * time.Millisecond
}

func testSpec(ct CampaignType) Spec {
	return Spec{N: 4, Delta: time.Millisecond, Window: testWindow(ct)}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, ct := range Campaigns {
		for seed := int64(1); seed <= 3; seed++ {
			a, err := Generate(ct, seed, testSpec(ct))
			if err != nil {
				t.Fatalf("%s: %v", ct, err)
			}
			b, err := Generate(ct, seed, testSpec(ct))
			if err != nil {
				t.Fatalf("%s: %v", ct, err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s seed %d: lengths %d vs %d", ct, seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s seed %d: event %d differs: %v vs %v", ct, seed, i, a[i], b[i])
				}
			}
			if ct.ProcessLevel() {
				// One victim at fixed instants can coincide across seeds at
				// n=4; TestProcessLevelSeedsDiffer checks these at n=10.
				continue
			}
			c, err := Generate(ct, seed+100, testSpec(ct))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) == fmt.Sprint(c) && len(a) > 0 {
				t.Errorf("%s: different seeds produced identical non-empty schedules", ct)
			}
		}
	}
}

func TestGeneratedSchedulesStayInWindow(t *testing.T) {
	for _, ct := range Campaigns {
		spec := testSpec(ct)
		for seed := int64(1); seed <= 5; seed++ {
			s, err := Generate(ct, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) == 0 {
				t.Errorf("%s seed %d: empty schedule (vacuous campaign)", ct, seed)
			}
			for i, e := range s {
				if e.Time < 0 || e.Time.Duration() >= spec.Window {
					t.Errorf("%s seed %d: event %d at %v outside [0, %v)", ct, seed, i, e.Time, spec.Window)
				}
				if i > 0 && e.Time < s[i-1].Time {
					t.Errorf("%s seed %d: schedule not sorted at %d", ct, seed, i)
				}
				if !e.Channel && int(e.Proc) >= spec.N {
					t.Errorf("%s seed %d: event %d names processor %v outside the universe", ct, seed, i, e.Proc)
				}
				if e.Channel && (int(e.Pair.From) >= spec.N || int(e.Pair.To) >= spec.N) {
					t.Errorf("%s seed %d: event %d names channel %v outside the universe", ct, seed, i, e.Pair)
				}
			}
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	if _, err := Generate(Mixed, 1, Spec{N: 1, Delta: time.Millisecond, Window: time.Second}); err == nil {
		t.Error("accepted single-processor universe")
	}
	if _, err := Generate(Mixed, 1, Spec{N: 3, Window: time.Second}); err == nil {
		t.Error("accepted zero delta")
	}
	if _, err := Generate(StopWaves, 1, Spec{N: 2, Window: 12 * time.Second}); err == nil {
		t.Error("process-level campaign accepted n=2")
	}
	if _, err := Generate(StopWaves, 1, Spec{N: 5, Window: time.Second}); err == nil {
		t.Error("process-level campaign accepted a 1s window")
	}
	if _, err := Generate(CampaignType("nonsense"), 1, testSpec(Mixed)); err == nil {
		t.Error("accepted unknown campaign")
	}
	if _, err := ParseCampaign("nonsense"); err == nil {
		t.Error("ParseCampaign accepted nonsense")
	}
	if ct, err := ParseCampaign("leader-crash"); err != nil || ct != LeaderCrash {
		t.Errorf("ParseCampaign(leader-crash) = %v, %v", ct, err)
	}
}

// TestLeaderCrashTargetsRingLeaders checks the campaign's defining bias:
// its first crash hits processor 0 (the initial leader), and crashes only
// ever hit the minimum currently-live processor.
func TestLeaderCrashTargetsRingLeaders(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s, err := Generate(LeaderCrash, seed, testSpec(LeaderCrash))
		if err != nil {
			t.Fatal(err)
		}
		down := map[int]bool{}
		first := true
		for _, e := range s {
			if e.Channel {
				t.Fatalf("seed %d: leader-crash emitted a channel event %v", seed, e)
			}
			if e.Status == failures.Bad {
				if first && e.Proc != 0 {
					t.Errorf("seed %d: first crash hit %v, want the initial leader p0", seed, e.Proc)
				}
				first = false
				for q := 0; q < int(e.Proc); q++ {
					if !down[q] {
						t.Errorf("seed %d: crashed %v while %d (a lower live processor) led", seed, e.Proc, q)
					}
				}
				down[int(e.Proc)] = true
			} else {
				down[int(e.Proc)] = false
			}
		}
	}
}

// TestAllCampaignsPassQuick is the short-mode gate: every campaign type,
// run end to end with conformance + recovery-liveness checking, passes on
// a small cluster and window.
func TestAllCampaignsPassQuick(t *testing.T) {
	for _, ct := range Campaigns {
		ct := ct
		t.Run(string(ct), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				t.Logf("seed %d", seed)
				r := Run(Config{Campaign: ct, Seed: seed, N: 4, Window: testWindow(ct)})
				if r.Failed() {
					t.Fatalf("seed %d: %v", seed, r.Violation)
				}
				if r.Msgs == 0 || r.Deliveries == 0 {
					t.Fatalf("seed %d: vacuous run (msgs=%d deliveries=%d)", seed, r.Msgs, r.Deliveries)
				}
				if r.Recovery.MaxLag > r.Bound {
					t.Fatalf("seed %d: lag %v exceeds bound %v without a violation", seed, r.Recovery.MaxLag, r.Bound)
				}
			}
		})
	}
}

// TestRunIsDeterministic: the same config yields the identical result —
// message counts, delivery counts, network totals, and measured lag.
func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{Campaign: Mixed, Seed: 7, N: 4, Window: 1200 * time.Millisecond}
	a, b := Run(cfg), Run(cfg)
	if a.Msgs != b.Msgs || a.Deliveries != b.Deliveries || a.Net != b.Net ||
		a.VSEvents != b.VSEvents || a.Recovery != b.Recovery || a.HealTime != b.HealTime {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestMsgsCountsAcceptedSubmissionsOnly holds one origin in amnesia for
// the whole load window: a wiped processor hosts no client, so Bcast there
// reports false, nothing it was offered is ever logged as submitted, and
// Result.Msgs counts exactly the accepted submissions.
func TestMsgsCountsAcceptedSubmissionsOnly(t *testing.T) {
	const victim = types.ProcID(1)
	c := stack.NewCluster(stack.Options{Seed: 1, N: 4, Delta: time.Millisecond})
	c.Oracle.SetProc(victim, failures.Amnesia)
	if c.Bcast(victim, "refused") {
		t.Fatal("an amnesiac origin accepted a submission")
	}
	if !c.Bcast(0, "accepted") {
		t.Fatal("a good origin refused a submission")
	}

	r := Run(Config{Campaign: Amnesia, Seed: 1, N: 4, Window: 1200 * time.Millisecond,
		Schedule: failures.Schedule{{Time: 0, Proc: victim, Status: failures.Amnesia}}})
	if r.Failed() {
		t.Fatal(r.Violation)
	}
	logged, lastOffer := 0, 0
	for _, e := range r.Cluster.Log.Events {
		if e.Kind != props.TOBcast {
			continue
		}
		if e.P == victim {
			t.Fatalf("amnesiac origin logged a submission: %v", e)
		}
		logged++
		var k int
		fmt.Sscanf(string(e.Value), "c%d", &k) // the k-th value the traffic loop offered
		lastOffer = max(lastOffer, k)
	}
	if r.Msgs != logged {
		t.Errorf("Msgs = %d, want the %d accepted submissions", r.Msgs, logged)
	}
	if lastOffer <= r.Msgs {
		t.Errorf("traffic loop offered %d values and Msgs = %d: no offer to the amnesiac origin was left out", lastOffer, r.Msgs)
	}
}
