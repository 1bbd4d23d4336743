package vstoto

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// Tests for the two ways an explorer edge pays only for what is new about
// it: a successor equal to a twin the worker checked earlier in the wave
// takes the twin's verdict and f, and a wave near MaxStates is expanded in
// prefixes so that nothing is kept past the cap.

// TestMemoMatchesFullCheck runs the full state checks on every successor
// whose checks the explorer skipped for a twin's, over every matrix
// configuration and an n = 3 run with two values: each must pass, as its
// twin did, with the twin's f.
func TestMemoMatchesFullCheck(t *testing.T) {
	configs := exploreMatrixConfigs()
	configs = append(configs, struct {
		name string
		cfg  ExploreConfig
	}{"n=3 b=2 truncated 20000", ExploreConfig{N: 3, MaxBcasts: 2, MaxStates: 20000, Views: []types.View{
		{ID: types.ViewID{Epoch: 2, Proc: 2}, Set: types.RangeProcSet(3)},
	}}})
	for _, c := range configs {
		var hits, wrong atomic.Int64
		cfg := c.cfg
		cfg.Workers = 2
		cfg.memoHook = func(succ exploreState, act Act, memo *AbstractState) {
			hits.Add(1)
			sys := succ.system()
			d := sys.derive(newDerived())
			var abs *AbstractState
			err := sys.checkInvariants(d)
			if err == nil {
				err = sys.checkDeepInvariants(d)
			}
			if err == nil {
				abs, err = sys.abstract(d)
			}
			if err != nil || !sameAbstract(abs, memo) {
				if wrong.Add(1) == 1 {
					t.Errorf("%s: after %v the full checks give %v and f %+v, the twin's f %+v", c.name, act, errText(err), abs, memo)
				}
			}
		}
		want, wantErr := Explore(c.cfg)
		got, err := Explore(cfg)
		want.violationHash, got.violationHash = 0, 0 // Workers may differ
		if got != want || errText(err) != errText(wantErr) {
			t.Errorf("%s: with the hook %+v %v, without %+v %v", c.name, got, err, want, wantErr)
		}
		if hits.Load() == 0 {
			t.Errorf("%s: no successor reused a twin's checks", c.name)
		}
		t.Logf("%s: %d of %d edges reused a twin's checks", c.name, hits.Load(), got.Edges)
	}
}

// TestMemoKeyCoversCheckInputs is the census of what the reuse key covers:
// every field of the state the checks read is in the canonical encoding,
// compared by sameChecks, or fixed for one exploration. A new field fails
// here until it is given one of the three.
func TestMemoKeyCoversCheckInputs(t *testing.T) {
	const (
		encoded  = "in the canonical encoding"
		compared = "compared by sameChecks"
		fixed    = "the same in every state of one exploration"
	)
	machine := reflect.TypeOf(vsmachine.Machine{})
	slotField, _ := machine.FieldByName("slots")
	for _, c := range []struct {
		typ    reflect.Type
		fields map[string]string
	}{
		{reflect.TypeOf(exploreState{}), map[string]string{
			"vs": encoded, "procs": encoded, "bcasts": encoded, "views": encoded,
			"enc": encoded, "cut": "the encoding's component boundaries", "abs": "f, which the checks compute",
		}},
		{reflect.TypeOf(Proc{}), map[string]string{
			"procFixed": fixed, "Current": encoded, "NextSeqno": encoded, "Buffer": encoded, "Order": encoded,
			"NextConfirm": encoded, "NextReport": encoded, "HighPrimary": encoded, "Delay": encoded,
			"content": encoded + " as its pairs; the runs' holes are compared", "GotState": encoded,
			"SafeExch": encoded, "safe": compared, "Established": compared, "BuildOrder": compared,
			"Status": encoded, "exchSafe": compared, "LiteralFigure10Label": fixed, "TrackHistory": fixed,
		}},
		{reflect.TypeOf(labelRuns{}), map[string]string{"runs": encoded + " as pairs", "n": encoded}},
		{reflect.TypeOf(labelRun{}), map[string]string{
			"id": encoded, "origin": encoded, "vals": encoded, "missing": compared, "holes": compared,
		}},
		{reflect.TypeOf(Summary{}), map[string]string{
			"Con": encoded + " as pairs", "Runs": encoded + " as pairs", "Ord": encoded, "Next": encoded, "High": encoded,
		}},
		{machine, map[string]string{
			"procs": fixed, "weak": fixed + " (VS-machine, never the weak one)", "Created": encoded,
			"CurrentViewID": encoded, "slots": encoded, "sc": "where a copy is built, not state",
		}},
		{slotField.Type.Elem(), map[string]string{
			"pg": encoded, "pending": encoded, "next": encoded, "nextSafe": encoded,
			"contiguous": fixed + " (GapMachine's; 0 in VS-machine)",
		}},
	} {
		for i := range c.typ.NumField() {
			if name := c.typ.Field(i).Name; c.fields[name] == "" {
				t.Errorf("%v.%s is neither encoded, compared nor fixed: give it to sameChecks or the encoding", c.typ, name)
			}
			delete(c.fields, c.typ.Field(i).Name)
		}
		for name := range c.fields {
			t.Errorf("the census names %v.%s, which no longer exists", c.typ, name)
		}
	}
}

// TestMemoKeyRejectsUnencodedDifferences builds pairs of states that
// encode alike but differ in an input of the checks the encoding leaves
// out: no pair may share a verdict.
func TestMemoKeyRejectsUnencodedDifferences(t *testing.T) {
	cfg := exploreViewCfg()
	initial, err := exploreInitial(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A state whose processor 0 has labeled a value, so that its content
	// has a run.
	base := initial.successor(Act{Kind: ActBcast, A: "v1", P: 0}, nil)
	base = base.successor(Act{Kind: ActLabel, P: 0}, nil)
	base.enc, base.cut = base.appendFingerprint(nil, nil, nil)
	if base.procs[0].ContentLen() != 1 {
		t.Fatalf("the base state's content is %d labels, want 1", base.procs[0].ContentLen())
	}
	for name, edit := range map[string]func(p *Proc){
		"Established": func(p *Proc) { p.Established = append(slices.Clip(p.Established), types.ViewID{Epoch: 2, Proc: 1}) },
		"BuildOrder":  func(p *Proc) { p.BuildOrder = append(slices.Clip(p.BuildOrder), ViewOrder{G: types.G0()}) },
		"exchSafe":    func(p *Proc) { p.exchSafe = true }, // no label outside the current view: the same safe set
		"run holes":   func(p *Proc) { p.content.runs[0].holes, p.content.runs[0].missing = 1, []uint64{0} },
		"safe counts": func(p *Proc) { p.safe = safeLabels{{origin: 1, n: 0}} },
	} {
		twin := base
		twin.procs = slices.Clone(base.procs)
		twin.procs[0] = base.procs[0].Clone()
		if !twin.sameChecks(&base, base.enc) {
			t.Fatalf("%s: an unedited copy does not match", name)
		}
		edit(twin.procs[0])
		enc, _ := twin.appendFingerprint(nil, nil, nil)
		if string(enc) != string(base.enc) {
			t.Fatalf("%s: the edit changed the encoding; the pair tests nothing", name)
		}
		if twin.sameChecks(&base, enc) {
			t.Errorf("%s: states that differ in it share a verdict", name)
		}
	}
}

// TestMemoCollisionReportsViolationVerbatim maps every fingerprint hash to
// one value, so that every successor finds a twin by hash, and checks that
// the literal Figure 10 violation is still reported word for word: only an
// equal state may reuse a verdict. (ExactKeys keeps the visited set apart
// from the hash, so the search itself is unchanged.)
func TestMemoCollisionReportsViolationVerbatim(t *testing.T) {
	cfg := exploreMutantCfg()
	cfg.ExactKeys = true
	want, wantErr := Explore(cfg)
	if wantErr == nil {
		t.Fatal("mutant config found no violation")
	}
	cfg.fpHook = func(uint64) uint64 { return 1 }
	got, err := Explore(cfg)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("with every hash colliding the violation is %v, want %v", err, wantErr)
	}
	want.violationHash = got.violationHash
	if got != want {
		t.Errorf("with every hash colliding the run is %+v, want %+v", got, want)
	}
}

// exploreGraph is a state graph as a serial search discovers it: the
// successors of each expanded state by discovery index (the initial
// state is 0), its abstract queue length and whether POR reduced it.
type exploreGraph struct {
	succs    [][]int
	queueLen []int
	ample    []bool
}

// buildExploreGraph expands the first n states of cfg's breadth-first
// discovery order, keyed by their full encodings.
func buildExploreGraph(t *testing.T, cfg ExploreConfig, n int) exploreGraph {
	initial, err := exploreInitial(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	values, index := bcastValues(cfg.MaxBcasts), map[string]int{string(initial.enc): 0}
	var g exploreGraph
	for states := []*exploreState{initial}; len(g.succs) < min(n, len(states)); {
		cur := states[len(g.succs)]
		acts := cur.enabled(nil, cfg, values)
		k := -1
		if cfg.POR {
			k = porAmpleIndex(acts)
		}
		if k >= 0 {
			acts = acts[k : k+1]
		}
		g.ample, g.queueLen = append(g.ample, k >= 0), append(g.queueLen, len(cur.abs.Queue))
		var succs []int
		for _, a := range acts {
			succ := cur.successor(a, nil)
			succ.enc, succ.cut = succ.appendFingerprint(nil, nil, cur)
			i, ok := index[string(succ.enc)]
			if !ok {
				i, index[string(succ.enc)] = len(states), len(states)
				if succ.abs, err = succ.system().Abstract(); err != nil {
					t.Fatal(err)
				}
				states = append(states, &succ)
			}
			succs = append(succs, i)
		}
		g.succs = append(g.succs, succs)
	}
	return g
}

// truncatedBFS is the reference the explorer's truncation must equal: a
// serial level-by-level search of g that admits at most maxStates states
// and counts every edge out of every admitted state.
func truncatedBFS(g exploreGraph, maxStates int) ExploreResult {
	res, seen := ExploreResult{States: 1}, map[int]bool{0: true}
	for level := []int{0}; len(level) > 0; {
		var next []int
		for _, u := range level {
			res.MaxQueueLen = max(res.MaxQueueLen, g.queueLen[u])
			if g.ample[u] {
				res.AmpleStates++
			}
			for _, v := range g.succs[u] {
				res.Edges++
				switch {
				case seen[v]:
				case res.States == maxStates:
					res.Truncated = true
					res.SkippedEdges++
				default:
					seen[v] = true
					res.States++
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			res.MaxDepth++
		}
		level = next
	}
	return res
}

// TestTruncationMatchesSerialReference runs the benchmark's configuration
// truncated at every MaxStates from 1 to 600, at one and two workers, with
// POR off and on: every result must equal the serial reference's, and
// explore.waves must count its levels.
func TestTruncationMatchesSerialReference(t *testing.T) {
	const most = 600
	for _, por := range []bool{false, true} {
		cfg := ExploreConfig{N: 2, MaxBcasts: 2, POR: por, Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)},
		}}
		g := buildExploreGraph(t, cfg, most)
		for maxStates := 1; maxStates <= most; maxStates++ {
			want := truncatedBFS(g, maxStates)
			for _, workers := range []int{1, 2} {
				cfg.MaxStates, cfg.Workers, cfg.Obs = maxStates, workers, obs.New()
				got, err := Explore(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("POR %t, MaxStates %d, workers %d: %+v, the serial reference %+v", por, maxStates, workers, got, want)
				}
				if waves := cfg.Obs.Counter("explore.waves").Value(); waves != int64(got.MaxDepth)+1 {
					t.Fatalf("POR %t, MaxStates %d, workers %d: %d waves, want MaxDepth+1 = %d", por, maxStates, workers, waves, got.MaxDepth+1)
				}
			}
		}
	}
}
