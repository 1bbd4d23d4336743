package vsmachine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/ioa"
	"repro/internal/types"
)

// TestWeakVSTracesAreVSTraces is the executable form of the remark after
// Lemma 4.2: WeakVS-machine (createview requires only a fresh identifier,
// not a maximal one) allows exactly the same finite traces as VS-machine.
// We drive WeakVS with deliberately out-of-order view creation and verify
// that every resulting external trace passes the VS-machine trace checker
// (createview is internal, so traces cannot reveal creation order).
func TestWeakVSTracesAreVSTraces(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const n = 4
			procs := types.RangeProcSet(n)
			p0 := types.NewProcSet(0, 1)
			auto := NewWeakAuto(procs, p0)
			exec := ioa.NewExecutor(seed, auto)

			// Out-of-order proposer: random epochs in a band, many below
			// the current maximum — exactly what the strong machine
			// forbids and the weak machine allows.
			rng := exec.Rand()
			auto.Proposer = func() []types.View {
				if rng.Float64() >= 0.08 {
					return nil
				}
				members := []types.ProcID{types.ProcID(rng.Intn(n))}
				for _, p := range procs.Members() {
					if rng.Intn(2) == 0 {
						members = append(members, p)
					}
				}
				return []types.View{{
					ID:  types.ViewID{Epoch: 2 + rng.Int63n(30), Proc: members[0]},
					Set: types.NewProcSet(members...),
				}}
			}
			var counter int
			exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
				counter++
				return Gpsnd{M: counter, P: types.ProcID(rng.Intn(n))}
			}))
			if err := exec.Run(3000); err != nil {
				t.Fatal(err)
			}

			// Replay the external trace through the Lemma 4.2 checker,
			// assigning MsgIDs per gpsnd (payloads are unique ints).
			ck := check.NewVSChecker(procs, p0)
			ids := make(map[any]check.MsgID)
			seqs := make(map[types.ProcID]int)
			for _, ev := range exec.Trace() {
				var err error
				switch a := ev.Act.(type) {
				case Gpsnd:
					seqs[a.P]++
					id := check.MsgID{Sender: a.P, Seq: seqs[a.P]}
					ids[a.M] = id
					err = ck.Gpsnd(id)
				case Gprcv:
					err = ck.Gprcv(ids[a.M], a.Q)
				case Safe:
					err = ck.Safe(ids[a.M], a.Q)
				case Newview:
					err = ck.Newview(a.V, a.P)
				}
				if err != nil {
					t.Fatalf("WeakVS trace rejected by the VS checker: %v", err)
				}
			}
			if len(auto.M.Created) < 3 {
				t.Skipf("run created only %d views; weak behavior not exercised", len(auto.M.Created))
			}
		})
	}
}
