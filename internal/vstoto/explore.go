package vstoto

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/sweep"
	"repro/internal/types"
)

// Bounded exhaustive exploration (model checking) of VStoTO-system: for a
// tiny configuration — a couple of processors, a couple of client values,
// a fixed menu of views — enumerate EVERY reachable state of the
// composition of VS-machine with the VStoTO processors, checking at every
// state the Section 6 invariants and at every edge the forward-simulation
// step condition against TO-machine. Where the randomized executor samples
// schedules, the explorer covers all of them: within the bounds, Theorem
// 6.26 is checked for every interleaving.
//
// The search is a breadth-first wave expansion parallelized on the sweep
// pool: each wave's frontier states are expanded concurrently (clone,
// apply, check, fingerprint — all against state the wave never mutates)
// and the per-state results are merged on the calling goroutine in
// submission order. Because FIFO BFS order is exactly level order with
// per-level insertion order preserved, the merged States/Edges/
// MaxQueueLen/Truncated accounting and the first violation reported are
// byte-identical to a serial left-to-right BFS at every worker count — the
// same determinism discipline as the rest of the sweep engine. The visited
// set is read-only during a wave and written only by the merge, so the
// whole search needs no locks.

// ExploreConfig bounds the exploration.
type ExploreConfig struct {
	// N is the number of processors; P0Size of them start in the initial
	// view (default all).
	N      int
	P0Size int
	// Quorums defaults to majorities over the universe.
	Quorums types.QuorumSystem
	// MaxBcasts bounds the client inputs; the i-th bcast carries the value
	// "v<i>" and may be submitted at any processor (all choices explored).
	MaxBcasts int
	// Views is the menu of views available to createview, taken in order
	// (identifiers must be increasing).
	Views []types.View
	// MaxStates aborts the exploration when the visited set reaches this
	// size (0 = unlimited).
	MaxStates int
	// LiteralFigure10Label configures the processors with the paper's
	// literal label precondition (see Proc.LiteralFigure10Label).
	LiteralFigure10Label bool
	// Workers is the expansion parallelism (<= 0 means GOMAXPROCS). The
	// result is identical at every worker count.
	Workers int
	// POR enables partial-order reduction (see explore_por.go): states
	// with a provably independent local action expand only that action.
	// Reduced runs agree with unreduced runs on violations but visit fewer
	// states; use ExplorePORCrossCheck to verify both on one config.
	POR bool
	// ExactKeys keys the visited set by the full state encoding instead of
	// its 64-bit hash — the audit mode for the hash-compaction tests. It
	// retains every encoding, so only use it within small bounds.
	ExactKeys bool
	// Obs, when non-nil, receives explore.* counters and the frontier
	// gauge; all updates happen on the merge goroutine.
	Obs *obs.Registry

	// fpHook (tests only) post-processes each state's fingerprint hash,
	// used to force collisions deliberately.
	fpHook func(uint64) uint64
	// ampleHook (tests only) replaces the POR ample-selection rule, used
	// to prove a broken commutativity relation is caught by the POR-off
	// cross-check.
	ampleHook func([]ioa.Action) int
}

// ExploreResult reports the exploration's extent.
type ExploreResult struct {
	States    int // distinct states visited
	Edges     int // transitions checked
	Truncated bool
	// SkippedEdges counts checked transitions whose (new) target state was
	// dropped because MaxStates was reached: the subtree behind each is
	// unexplored. 0 on a non-truncated run.
	SkippedEdges int
	// MaxQueueLen is the longest abstract total order reached (a sanity
	// signal that the bounds actually exercised deliveries).
	MaxQueueLen int
	// MaxDepth is the deepest BFS wave that produced a frontier (the
	// initial state is depth 0).
	MaxDepth int
	// AmpleStates counts states expanded through a singleton ample set
	// when POR is on (0 when off).
	AmpleStates int

	// violationHash (tests only) is the fingerprint hash of the violating
	// state when the run ends in an error, used by the collision tests to
	// prove a colliding hash cannot mask a violation.
	violationHash uint64
}

type exploreState struct {
	vs     *vsmachine.Machine
	procs  map[types.ProcID]*Proc
	bcasts int
	views  int
}

func (s *exploreState) clone() *exploreState {
	out := &exploreState{
		vs:     s.vs.Clone(),
		procs:  make(map[types.ProcID]*Proc, len(s.procs)),
		bcasts: s.bcasts,
		views:  s.views,
	}
	for p, proc := range s.procs {
		out.procs[p] = proc.Clone()
	}
	return out
}

// autos builds fresh adapter views over this state's components.
func (s *exploreState) autos() (*vsmachine.Auto, map[types.ProcID]*Auto) {
	vsAuto := &vsmachine.Auto{M: s.vs}
	procAutos := make(map[types.ProcID]*Auto, len(s.procs))
	for p, proc := range s.procs {
		procAutos[p] = &Auto{P: proc}
	}
	return vsAuto, procAutos
}

// enabled enumerates every action available in this state, including the
// environment's (bounded) choices.
func (s *exploreState) enabled(cfg ExploreConfig) []ioa.Action {
	vsAuto, procAutos := s.autos()
	var acts []ioa.Action
	acts = vsAuto.Enabled(acts)
	for _, p := range s.vs.Procs().Members() {
		acts = procAutos[p].Enabled(acts)
	}
	if s.bcasts < cfg.MaxBcasts {
		val := types.Value(fmt.Sprintf("v%d", s.bcasts+1))
		for _, p := range s.vs.Procs().Members() {
			acts = append(acts, tomachine.Bcast{A: val, P: p})
		}
	}
	if s.views < len(cfg.Views) {
		v := cfg.Views[s.views]
		if s.vs.CreateviewEnabled(v) {
			acts = append(acts, vsmachine.Createview{V: v})
		}
	}
	return acts
}

// apply performs the action on this state (mutating it), mimicking the
// executor's owner-performs / receivers-input wiring.
func (s *exploreState) apply(act ioa.Action) error {
	vsAuto, procAutos := s.autos()
	switch act.(type) {
	case tomachine.Bcast:
		s.bcasts++
	case vsmachine.Createview:
		s.views++
	}
	// Owner performs.
	switch vsAuto.Classify(act) {
	case ioa.Output, ioa.Internal:
		vsAuto.Perform(act)
	}
	for _, p := range s.vs.Procs().Members() {
		a := procAutos[p]
		switch a.Classify(act) {
		case ioa.Output, ioa.Internal:
			a.Perform(act)
		}
	}
	// Receivers take input.
	if vsAuto.Classify(act) == ioa.Input {
		vsAuto.Input(act)
	}
	for _, p := range s.vs.Procs().Members() {
		a := procAutos[p]
		if a.Classify(act) == ioa.Input {
			a.Input(act)
		}
	}
	return nil
}

// system views the state's components as a System (majority quorums unless
// cfg.Quorums says otherwise).
func (s *exploreState) system(cfg ExploreConfig) *System {
	qs := cfg.Quorums
	if qs == nil {
		qs = types.Majorities{Universe: s.vs.Procs()}
	}
	return NewSystem(s.vs, s.procs, qs)
}

// checkAbstractStep verifies the forward-simulation step condition for one
// edge: starting a TO-machine at f(pre), the concrete action's abstract
// counterpart (bcast, zero or more to-orders, brcv, or nothing) must be
// enabled and lead exactly to f(post).
func checkAbstractStep(procs types.ProcSet, pre, post *AbstractState, act ioa.Action) error {
	shadow := tomachine.New(procs)
	shadow.Queue = append(shadow.Queue, pre.Queue...)
	for _, p := range procs.Members() {
		shadow.Pending[p] = append([]types.Value(nil), pre.Pending[p]...)
		shadow.Next[p] = pre.Next[p]
	}
	if b, ok := act.(tomachine.Bcast); ok {
		shadow.ApplyBcast(b.A, b.P)
	}
	if len(post.Queue) < len(pre.Queue) {
		return fmt.Errorf("explore: abstract queue shrank")
	}
	for _, e := range post.Queue[len(pre.Queue):] {
		if err := shadow.ApplyToOrder(e.A, e.P); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	if b, ok := act.(tomachine.Brcv); ok {
		if err := shadow.ApplyBrcv(b.A, b.P, b.Q); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	// Exact correspondence with f(post).
	if len(shadow.Queue) != len(post.Queue) {
		return fmt.Errorf("explore: queue length %d ≠ f(post) %d", len(shadow.Queue), len(post.Queue))
	}
	for _, p := range procs.Members() {
		if shadow.Next[p] != post.Next[p] {
			return fmt.Errorf("explore: next[%v]=%d ≠ f(post) %d", p, shadow.Next[p], post.Next[p])
		}
		sp, pp := shadow.Pending[p], post.Pending[p]
		if len(sp) != len(pp) {
			return fmt.Errorf("explore: pending[%v] %v ≠ f(post) %v", p, sp, pp)
		}
		for i := range sp {
			if sp[i] != pp[i] {
				return fmt.Errorf("explore: pending[%v][%d] %q ≠ %q", p, i, sp[i], pp[i])
			}
		}
	}
	return nil
}

// exploreVisited is the deduplication set. In the default mode it stores
// only the 64-bit FNV-1a hash of each state's canonical encoding (~8 bytes
// per state instead of the full rendering); in ExactKeys mode it stores
// the encodings themselves. A hash collision in the default mode can hide
// an unexplored subtree, never a violation at a generated state: every
// generated successor is checked BEFORE the dedup lookup (see
// exploreExpand), so the worst a collision does is under-count — which the
// ExactKeys audit tests measure.
type exploreVisited struct {
	hashes map[uint64]struct{}
	exact  map[string]struct{} // non-nil iff ExactKeys
}

func newExploreVisited(exactKeys bool) *exploreVisited {
	v := &exploreVisited{hashes: make(map[uint64]struct{})}
	if exactKeys {
		v.exact = make(map[string]struct{})
	}
	return v
}

func (v *exploreVisited) has(hash uint64, key string) bool {
	if v.exact != nil {
		_, ok := v.exact[key]
		return ok
	}
	_, ok := v.hashes[hash]
	return ok
}

func (v *exploreVisited) add(hash uint64, key string) {
	if v.exact != nil {
		v.exact[key] = struct{}{}
		return
	}
	v.hashes[hash] = struct{}{}
}

// exploreEdge is one checked transition out of a frontier state, in
// enumeration order.
type exploreEdge struct {
	applyErr error  // action application failed (edge not counted)
	checkErr error  // invariant/simulation violation (edge counted)
	hash     uint64 // successor fingerprint hash (computed before checks)
	key      string // successor encoding, ExactKeys mode only
	succ     *exploreState
}

// exploreOut is one frontier state's expansion, produced by a worker and
// consumed by the ordered merge.
type exploreOut struct {
	preErr   error // f undefined at the state itself
	queueLen int   // abstract queue length at the state
	ample    bool  // expansion reduced to a singleton ample set
	edges    []exploreEdge
}

// exploreExpand expands one frontier state: enumerate (possibly
// POR-reduced) actions, and for each, clone, apply, fingerprint, and run
// every check. It reads cur and visited but mutates neither — visited is
// frozen for the duration of the wave, which is what makes concurrent
// expansion race-free. buf is the worker's reusable encoding scratch.
// Expansion stops at the state's first erroring edge, exactly where the
// serial explorer stopped.
func exploreExpand(cfg ExploreConfig, cur *exploreState, visited *exploreVisited, buf *[]byte) exploreOut {
	var out exploreOut
	preSys := cur.system(cfg)
	preAbs, err := preSys.Abstract()
	if err != nil {
		out.preErr = fmt.Errorf("explore: f undefined at a visited state: %w", err)
		return out
	}
	out.queueLen = len(preAbs.Queue)

	acts := cur.enabled(cfg)
	if cfg.POR {
		ample := porAmpleIndex
		if cfg.ampleHook != nil {
			ample = cfg.ampleHook
		}
		if k := ample(acts); k >= 0 {
			acts = acts[k : k+1]
			out.ample = true
		}
	}

	procs := cur.vs.Procs()
	for _, act := range acts {
		succ := cur.clone()
		if err := succ.apply(act); err != nil {
			out.edges = append(out.edges, exploreEdge{applyErr: err})
			return out
		}
		var e exploreEdge
		// Fingerprint before checking: the dedup key must never decide
		// whether a generated state gets checked, so a hash collision can
		// lose an unexplored subtree but can never mask a violation.
		*buf = succ.encodeFingerprint((*buf)[:0])
		e.hash = types.HashFingerprint(*buf)
		if cfg.fpHook != nil {
			e.hash = cfg.fpHook(e.hash)
		}
		if cfg.ExactKeys {
			e.key = string(*buf)
		}
		sys := succ.system(cfg)
		if err := sys.CheckInvariants(); err != nil {
			e.checkErr = fmt.Errorf("explore: invariant after %v: %w", act, err)
		} else if err := sys.CheckDeepInvariants(); err != nil {
			e.checkErr = fmt.Errorf("explore: deep invariant after %v: %w", act, err)
		} else if postAbs, err := sys.Abstract(); err != nil {
			e.checkErr = fmt.Errorf("explore: f undefined after %v: %w", act, err)
		} else if err := checkAbstractStep(procs, preAbs, postAbs, act); err != nil {
			e.checkErr = fmt.Errorf("explore: simulation step for %v: %w", act, err)
		}
		// Keep the successor only if it might enter the frontier: already
		// visited before this wave means the merge will drop it anyway, so
		// release the clone to the collector here. Intra-wave duplicates
		// are resolved by the merge (first in submission order wins).
		if e.checkErr == nil && !visited.has(e.hash, e.key) {
			e.succ = succ
		}
		out.edges = append(out.edges, e)
		if e.checkErr != nil {
			return out
		}
	}
	return out
}

// Explore runs the bounded exhaustive check. It returns an error on the
// first invariant or simulation violation, identifying the failing state
// and action. The error, like every counter in the result, is independent
// of cfg.Workers.
func Explore(cfg ExploreConfig) (ExploreResult, error) {
	var res ExploreResult
	if cfg.P0Size <= 0 || cfg.P0Size > cfg.N {
		cfg.P0Size = cfg.N
	}
	procs := types.RangeProcSet(cfg.N)
	p0 := types.NewProcSet(procs.Members()[:cfg.P0Size]...)
	qs := cfg.Quorums
	if qs == nil {
		qs = types.Majorities{Universe: procs}
	}

	initial := &exploreState{
		vs:    vsmachine.New(procs, p0),
		procs: make(map[types.ProcID]*Proc, cfg.N),
	}
	for _, p := range procs.Members() {
		pr := NewProc(p, qs, p0)
		pr.TrackHistory = true
		pr.LiteralFigure10Label = cfg.LiteralFigure10Label
		initial.procs[p] = pr
	}

	workers := sweep.Workers(cfg.Workers)
	cStates := cfg.Obs.Counter("explore.states")
	cEdges := cfg.Obs.Counter("explore.edges")
	cWaves := cfg.Obs.Counter("explore.waves")
	cAmple := cfg.Obs.Counter("explore.ample_states")
	cSkipped := cfg.Obs.Counter("explore.skipped_edges")
	gFrontier := cfg.Obs.Gauge("explore.frontier")

	visited := newExploreVisited(cfg.ExactKeys)
	enc := initial.encodeFingerprint(nil)
	h0 := types.HashFingerprint(enc)
	if cfg.fpHook != nil {
		h0 = cfg.fpHook(h0)
	}
	visited.add(h0, string(enc))
	res.States = 1
	cStates.Inc()

	// Per-worker reusable encoding buffers: a worker expands many states
	// per wave and the encoder is the allocation hot path.
	bufs := make([][]byte, workers)

	frontier := []*exploreState{initial}
	depth := 0
	for len(frontier) > 0 {
		gFrontier.Max(int64(len(frontier)))
		outs := sweep.RunWorker(workers, len(frontier), func(w, i int) exploreOut {
			return exploreExpand(cfg, frontier[i], visited, &bufs[w])
		})
		cWaves.Inc()

		// Ordered merge: scanning states in submission order and their
		// edges in enumeration order replays exactly the serial FIFO BFS,
		// so every counter update and early return below lands in the
		// same sequence a serial run would produce.
		var next []*exploreState
		for _, out := range outs {
			if out.preErr != nil {
				return res, out.preErr
			}
			if out.queueLen > res.MaxQueueLen {
				res.MaxQueueLen = out.queueLen
			}
			if out.ample {
				res.AmpleStates++
				cAmple.Inc()
			}
			for _, e := range out.edges {
				if e.applyErr != nil {
					return res, e.applyErr
				}
				res.Edges++
				cEdges.Inc()
				if e.checkErr != nil {
					res.violationHash = e.hash
					return res, e.checkErr
				}
				if visited.has(e.hash, e.key) {
					continue
				}
				if cfg.MaxStates > 0 && res.States >= cfg.MaxStates {
					res.Truncated = true
					res.SkippedEdges++
					cSkipped.Inc()
					continue
				}
				visited.add(e.hash, e.key)
				res.States++
				cStates.Inc()
				next = append(next, e.succ)
			}
		}
		if len(next) > 0 {
			depth++
			res.MaxDepth = depth
		}
		frontier = next
	}
	return res, nil
}
