package vstoto

import (
	"reflect"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// boxedEnabled is what the explorer enumerated before its actions were
// values: VS-machine's and each processor's ioa automaton's enabled
// actions, then the environment's bcasts and createview.
func boxedEnabled(s *exploreState, cfg ExploreConfig, values []types.Value) []ioa.Action {
	acts := (&vsmachine.Auto{M: s.vs}).Enabled(nil)
	for _, p := range s.procs {
		acts = (&Auto{P: p}).Enabled(acts)
	}
	if int(s.bcasts) < cfg.MaxBcasts {
		for _, p := range s.vs.Procs().Members() {
			acts = append(acts, tomachine.Bcast{A: values[s.bcasts], P: p})
		}
	}
	if int(s.views) < len(cfg.Views) && s.vs.CreateviewEnabled(cfg.Views[s.views]) {
		acts = append(acts, vsmachine.Createview{V: cfg.Views[s.views]})
	}
	return acts
}

// TestActsMatchBoxedEnumeration: at every state of the view-change
// exploration and of the literal Figure 10 one, the value enumeration
// yields the boxed enumeration's actions in its order, each Act converts
// to its boxed action and back unchanged, and the two classify it the
// same way: the processor whose automaton takes it, and whether
// VS-machine's does.
func TestActsMatchBoxedEnumeration(t *testing.T) {
	literal := exploreViewCfg()
	literal.LiteralFigure10Label = true
	seen := map[ActKind]bool{}
	for _, cfg := range []ExploreConfig{exploreViewCfg(), literal} {
		values := bcastValues(cfg.MaxBcasts)
		walkExploreWaves(t, cfg, func(cfg ExploreConfig, frontier []*exploreState) []*exploreState {
			var next []*exploreState
			for _, cur := range frontier {
				acts, want := cur.enabled(nil, cfg, values), boxedEnabled(cur, cfg, values)
				if len(acts) != len(want) {
					t.Fatalf("%d actions enumerated as values, %d boxed:\n%v\n%v", len(acts), len(want), acts, want)
				}
				for i, a := range acts {
					if !reflect.DeepEqual(a.Action(), want[i]) || !reflect.DeepEqual(actOf(want[i]), a) {
						t.Fatalf("action %d: %+v converts to %v and the boxed %v back to %+v", i, a, a.Action(), want[i], actOf(want[i]))
					}
					if a.String() != want[i].String() {
						t.Fatalf("action %d renders as %q, boxed as %q", i, a, want[i])
					}
					checkSignature(t, cur, a, want[i])
					seen[a.Kind] = true
					succ := cur.successor(a, nil)
					succ.enc, succ.cut = succ.appendFingerprint(nil, nil, cur)
					next = append(next, &succ)
				}
			}
			return next
		})
	}
	for k := ActBcast; k <= ActVSOrder; k++ {
		if !seen[k] {
			t.Errorf("no state enabled an action of kind %d", k)
		}
	}
	if a := actOf(tomachine.ToOrder{A: "x", P: 0}); a.Kind != ActNone || a.Action() != nil {
		t.Errorf("to-order, no action of the system, converts to %+v", a)
	}
}

// checkSignature requires a's signature table to agree with VS-machine's
// Classify and with Figure 9's signature, written out as a type switch, at
// every processor.
func checkSignature(t *testing.T, s *exploreState, a Act, act ioa.Action) {
	t.Helper()
	if inVS := (&vsmachine.Auto{}).Classify(act) != ioa.NotInSignature; inVS != actSigs[a.Kind].vs {
		t.Fatalf("%v: in VS-machine's signature %t, the table says %t", act, inVS, actSigs[a.Kind].vs)
	}
	owner, kind := a.proc()
	for _, p := range s.procs {
		got := ioa.NotInSignature
		if p.id == owner {
			got = kind
		}
		if want := figure9(act, p.id); got != want {
			t.Fatalf("%v at %v: the table says %v, Figure 9 %v", act, p.id, got, want)
		}
	}
}

// figure9 classifies act for VStoTO_id as Figure 9's signature does.
func figure9(act ioa.Action, id types.ProcID) ioa.Kind {
	switch t := act.(type) {
	case tomachine.Bcast:
		if t.P == id {
			return ioa.Input
		}
	case tomachine.Brcv:
		if t.Q == id {
			return ioa.Output
		}
	case vsmachine.Gpsnd:
		if t.P == id {
			return ioa.Output
		}
	case vsmachine.Gprcv:
		if t.Q == id {
			return ioa.Input
		}
	case vsmachine.Safe:
		if t.Q == id {
			return ioa.Input
		}
	case vsmachine.Newview:
		if t.P == id {
			return ioa.Input
		}
	case LabelAct:
		if t.P == id {
			return ioa.Internal
		}
	case ConfirmAct:
		if t.P == id {
			return ioa.Internal
		}
	}
	return ioa.NotInSignature
}
