package vstoto

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// TestVStoTOOverGapVS machine-checks footnote 5's weakening, repaired: run
// the VStoTO algorithm over the VS service in which receivers may skip
// messages (deliveries are increasing subsequences of the per-view order,
// per-sender gap-free) while safe fires only once the whole prefix up to a
// message is delivered at every member. The external bcast/brcv trace must
// conform to TO-machine across randomized executions with aggressive
// skipping and view churn.
func TestVStoTOOverGapVS(t *testing.T) {
	totalDeliveries := 0
	for seed := int64(1); seed <= 8; seed++ {
		brcvs, err := runGapVS(t, seed, 4000, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalDeliveries += brcvs
	}
	// Individual seeds can stall (a skipped state-exchange summary kills a
	// view until the next one forms), but across seeds the harness must
	// actually exercise confirmed deliveries.
	if totalDeliveries < 50 {
		t.Fatalf("only %d deliveries across all seeds — harness too weak", totalDeliveries)
	}
}

// TestGapVSLiteralFootnote5Counterexample pins a finding of this
// reproduction: footnote 5 as literally stated (arbitrary delivery gaps,
// safe only for complete prefixes) is NOT sufficient for the VStoTO
// algorithm. A receiver's tentative order can hold a sender's later
// message without an earlier one it skipped; a subsequent view's state
// exchange adopts that order from the representative and the recovery safe
// path confirms it, breaking the TO service's per-sender FIFO. The
// randomized harness finds a violating schedule reliably; the repair is
// the per-sender gap-free restriction tested above.
func TestGapVSLiteralFootnote5Counterexample(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if _, err := runGapVS(t, seed, 4000, false); err != nil {
			t.Logf("counterexample found at seed %d: %v", seed, err)
			return
		}
	}
	t.Fatal("no counterexample found — the literal footnote 5 weakening unexpectedly survived 10 seeds")
}

func runGapVS(t *testing.T, seed int64, steps int, perSenderGapFree bool) (int, error) {
	t.Logf("seed %d", seed)
	const n = 3
	rng := rand.New(rand.NewSource(seed))
	procs := types.RangeProcSet(n)
	qs := types.Majorities{Universe: procs}
	vs := vsmachine.NewGap(procs, procs)
	vs.PerSenderGapFree = perSenderGapFree
	procMap := make([]*Proc, n)
	for _, p := range procs.Members() {
		procMap[p] = NewProc(p, qs, procs)
	}

	tck := check.NewTOChecker()
	bcasts, brcvs := 0, 0
	epoch := int64(1)

	// One action at random per step, mirroring the ioa executor but over
	// the gap machine's action vocabulary.
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0: // bcast
			bcasts++
			p := types.ProcID(rng.Intn(n))
			v := types.Value(fmt.Sprintf("v%d", bcasts))
			tck.Bcast(v, p)
			procMap[p].Bcast(v)
		case 1: // occasional view churn
			if rng.Intn(10) == 0 {
				epoch++
				var members []types.ProcID
				for _, p := range procs.Members() {
					if rng.Intn(3) > 0 {
						members = append(members, p)
					}
				}
				if len(members) == 0 {
					members = procs.Members()
				}
				v := types.View{
					ID:  types.ViewID{Epoch: epoch, Proc: members[0]},
					Set: types.NewProcSet(members...),
				}
				if vs.CreateviewEnabled(v) {
					if err := vs.ApplyCreateview(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 2: // newview at a random member
			for _, c := range vs.Created {
				for _, p := range c.Set.Members() {
					if vs.NewviewEnabled(c.View, p) && rng.Intn(2) == 0 {
						if err := vs.ApplyNewview(c.View, p); err != nil {
							t.Fatal(err)
						}
						procMap[p].Newview(c.View)
					}
				}
			}
		case 3: // proc locally controlled: label / gpsnd into the machine
			p := types.ProcID(rng.Intn(n))
			proc := procMap[p]
			if _, ok := proc.LabelEnabled(); ok {
				proc.Label()
			}
			if proc.GpsndSummaryEnabled() {
				vs.ApplyGpsnd(proc.GpsndSummary(), p)
			} else if _, ok := proc.GpsndValueEnabled(); ok {
				vs.ApplyGpsnd(proc.GpsndValue(), p)
			}
		case 4: // vs-order someone's pending head
			for _, p := range procs.Members() {
				g := vs.CurrentViewID[p]
				if g.IsBottom() {
					continue
				}
				if pend := vs.Pending(p, g); len(pend) > 0 && rng.Intn(2) == 0 {
					if err := vs.ApplyVSOrder(pend[0], p, g); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 5: // gap delivery: receive the next index or skip ahead
			q := types.ProcID(rng.Intn(n))
			g := vs.CurrentViewID[q]
			if g.IsBottom() {
				continue
			}
			k := 1 + rng.Intn(len(vs.Queue(g))+1)
			if !vs.GprcvAtEnabled(q, k) {
				continue
			}
			e, err := vs.ApplyGprcvAt(q, k)
			if err != nil {
				t.Fatal(err)
			}
			switch msg := e.M.(type) {
			case LabeledValue:
				procMap[q].GprcvValue(msg)
			case *Summary:
				procMap[q].GprcvSummary(e.P, msg)
			}
		case 6: // safe
			q := types.ProcID(rng.Intn(n))
			g := vs.CurrentViewID[q]
			if g.IsBottom() {
				continue
			}
			k := vs.NextSafe(q, g)
			if !vs.SafeAtEnabled(q, k) {
				continue
			}
			e, err := vs.ApplySafeAt(q, k)
			if err != nil {
				t.Fatal(err)
			}
			switch msg := e.M.(type) {
			case LabeledValue:
				procMap[q].SafeValue(msg)
			case *Summary:
				procMap[q].SafeSummary(e.P)
			}
		case 7: // confirm / brcv — the externally checked part
			q := types.ProcID(rng.Intn(n))
			proc := procMap[q]
			if proc.ConfirmEnabled() {
				proc.Confirm()
			}
			if from, a, ok := proc.BrcvEnabled(); ok {
				if err := tck.Brcv(a, from, q); err != nil {
					return brcvs, fmt.Errorf("TO violation over gap-VS at step %d: %w", step, err)
				}
				proc.Brcv()
				brcvs++
			}
		}
	}
	t.Logf("gap-VS seed %d: %d bcasts, %d deliveries, order length %d", seed, bcasts, brcvs, tck.OrderLen())
	return brcvs, nil
}
