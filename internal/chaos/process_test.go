package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/types"
)

func processLevel() []CampaignType {
	var out []CampaignType
	for _, ct := range Campaigns {
		if ct.ProcessLevel() {
			out = append(out, ct)
		}
	}
	return out
}

func TestProcessLevelSeedsDiffer(t *testing.T) {
	spec := Spec{N: 10, Window: 12 * time.Second}
	for _, ct := range processLevel() {
		a, err := Generate(ct, 7, spec)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		b, err := Generate(ct, 7, spec)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedules", ct)
		}
		if ct == RollingRestart {
			continue // seed-free by design: one cycle per node, fixed spacing
		}
		c, err := Generate(ct, 8, spec)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical schedules", ct)
		}
	}
}

// TestProcessLevelBudgetAndWindow replays every generated schedule's
// statuses. Budgeted families: at no instant may more than (n-1)/2 nodes
// be faulted (the primary component must survive — the non-vacuity
// guarantee is by construction), so they have no loss epochs. Quorum-loss
// families invert that: at some instant at least QuorumLossThreshold(n)
// nodes must be faulted at once, and every loss epoch lies inside the
// window. Both: every fault must be healed by the end, every event lands
// on a whole millisecond strictly inside the window, and a listener fault
// is always a full inbound column at one instant.
func TestProcessLevelBudgetAndWindow(t *testing.T) {
	for _, ct := range processLevel() {
		for _, n := range []int{3, 5, 10} {
			for _, window := range []time.Duration{2 * time.Second, 5 * time.Second, 12 * time.Second} {
				for seed := int64(1); seed <= 5; seed++ {
					s, err := Generate(ct, seed, Spec{N: n, Window: window})
					if ct.QuorumLoss() && window < 4*time.Second {
						if err == nil {
							t.Errorf("%s w=%v: short window accepted for quorum-loss kind", ct, window)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s n=%d w=%v seed=%d: %v", ct, n, window, seed, err)
					}
					if len(s) == 0 {
						t.Errorf("%s n=%d w=%v seed=%d: empty schedule", ct, n, window, seed)
						continue
					}
					procs := make([]failures.Status, n)
					deaf := make([]int, n)
					faulted := func() int {
						k := 0
						for v := range procs {
							if procs[v] != failures.Good || deaf[v] > 0 {
								k++
							}
						}
						return k
					}
					peak := 0
					for i := 0; i < len(s); {
						at := s[i].Time
						if at.Duration() >= window || at.Duration()%time.Millisecond != 0 {
							t.Errorf("%s n=%d w=%v seed=%d: event %v off the ms grid or outside the window", ct, n, window, seed, s[i])
						}
						for ; i < len(s) && s[i].Time == at; i++ {
							e := s[i]
							if e.Status == failures.Ugly {
								t.Fatalf("%s: ugly event %v", ct, e)
							}
							if !e.Channel {
								procs[e.Proc] = e.Status
								continue
							}
							if e.Status == failures.Bad {
								deaf[e.Pair.To]++
							} else {
								deaf[e.Pair.To]--
							}
						}
						for v, d := range deaf {
							if d != 0 && d != n-1 {
								t.Fatalf("%s n=%d w=%v seed=%d: p%d has %d of %d inbound pairs bad at %v — not a full column",
									ct, n, window, seed, v, d, n-1, at)
							}
						}
						k := faulted()
						peak = max(peak, k)
						if !ct.QuorumLoss() && k > (n-1)/2 {
							t.Fatalf("%s n=%d w=%v seed=%d: %d nodes faulted at %v, budget %d", ct, n, window, seed, k, at, (n-1)/2)
						}
					}
					if k := faulted(); k != 0 {
						t.Errorf("%s n=%d w=%v seed=%d: %d nodes still faulted at window end", ct, n, window, seed, k)
					}
					epochs := LossEpochs(s, n)
					if !ct.QuorumLoss() {
						if len(epochs) != 0 {
							t.Errorf("%s n=%d w=%v seed=%d: budgeted schedule has loss epochs %v", ct, n, window, seed, epochs)
						}
						continue
					}
					if peak < QuorumLossThreshold(n) {
						t.Errorf("%s n=%d w=%v seed=%d: peak %d faulted never reached quorum-loss threshold %d",
							ct, n, window, seed, peak, QuorumLossThreshold(n))
					}
					if ct != TotalPartition && peak >= n {
						// TotalPartition alone faults everyone (a symmetric
						// partition into singletons); the kill-based families
						// always keep one survivor so restarts have a peer.
						t.Errorf("%s n=%d w=%v seed=%d: all %d nodes faulted at once (generators keep one survivor)", ct, n, window, seed, n)
					}
					if len(epochs) == 0 {
						t.Errorf("%s n=%d w=%v seed=%d: quorum-loss schedule with no loss epochs", ct, n, window, seed)
					}
					for _, ep := range epochs {
						if ep.Start < 0 || ep.End.Duration() > window || ep.End <= ep.Start {
							t.Errorf("%s n=%d w=%v seed=%d: malformed loss epoch %+v", ct, n, window, seed, ep)
						}
					}
				}
			}
		}
	}
}

func TestRollingRestartCyclesEveryNodeOnce(t *testing.T) {
	s, err := Generate(RollingRestart, 1, Spec{N: 10, Window: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[types.ProcID]int{}
	for i := 0; i+1 < len(s); i += 2 {
		down, up := s[i], s[i+1]
		if down.Channel || down.Status != failures.Amnesia ||
			up != (failures.Event{Time: down.Time, Proc: down.Proc, Status: failures.Good}) {
			t.Fatalf("rolling restart emitted %v, %v: not a same-instant amnesia+good cycle", down, up)
		}
		seen[down.Proc]++
	}
	for p := types.ProcID(0); p < 10; p++ {
		if seen[p] != 1 {
			t.Errorf("node %v cycled %d times, want exactly once", p, seen[p])
		}
	}
}

// TestQuorumLossGate: each quorum-loss family reports at least one loss
// epoch and the order provably does not grow inside it; and the gate has
// teeth — run under a mutant oracle that leaves one inbound pair of an
// isolated node good, so that it and the survivor still form a quorum of
// three, the order grows inside the epochs of the honest schedule.
func TestQuorumLossGate(t *testing.T) {
	for _, ct := range processLevel() {
		if !ct.QuorumLoss() {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			r := Run(Config{Campaign: ct, Seed: seed, N: 5, Window: 6 * time.Second})
			if r.Failed() {
				t.Errorf("%s seed %d: %v", ct, seed, r.Violation)
			}
			if len(r.LossEpochs) == 0 {
				t.Errorf("%s seed %d: no loss epoch guarded", ct, seed)
			}
		}
	}

	// Below 6s split-rejoin is one round; at n=3 it isolates two nodes.
	// Spare the pair survivor→victim.
	const window = 5 * time.Second
	honest, err := Generate(SplitRejoin, 1, Spec{N: 3, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	isolated := map[types.ProcID]bool{}
	for _, e := range honest {
		isolated[e.Pair.To] = true
	}
	var survivor types.ProcID
	for isolated[survivor] {
		survivor++
	}
	spared := failures.Pair{From: survivor, To: honest[0].Pair.To}
	var mutant failures.Schedule
	for _, e := range honest {
		if e.Pair != spared {
			mutant = append(mutant, e)
		}
	}
	r := Run(Config{Campaign: SplitRejoin, Seed: 1, N: 3, Window: window, Schedule: mutant})
	if r.Failed() {
		t.Fatalf("mutant run: %v", r.Violation) // safety holds; a quorum legitimately survived
	}
	err = checkQuorumLoss(r.Cluster.Log, LossEpochs(honest, 3), r.Cluster.Cfg.AnalyticB(3))
	if err == nil || !strings.Contains(err.Error(), "the order grew inside loss epoch") {
		t.Fatalf("a surviving quorum passed the quorum-loss gate: %v", err)
	}
}
