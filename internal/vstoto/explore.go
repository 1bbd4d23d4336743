package vstoto

import (
	"fmt"
	"slices"

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
// pool: each wave's frontier states are expanded concurrently (copy what
// the action writes, apply, fingerprint, check — all against state the
// wave never mutates) and the per-state results are merged on the calling
// goroutine in submission order. Because FIFO BFS order is exactly level order with
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

// exploreState is one state of the composition. Once it has been merged
// into the frontier nothing writes to it or to anything it points to: a
// successor shares every component its action leaves alone, so a component
// may be reachable from many states, on many workers, at once.
type exploreState struct {
	vs    *vsmachine.Machine
	procs []*Proc // indexed by ProcID
	// bcasts and views count the environment's bcasts and createviews so
	// far. (Two int32s keep a state at 96 bytes.)
	bcasts, views int32

	// enc is the canonical encoding (see appendFingerprint) and cut its
	// component boundaries: the VS machine is enc[cut[0]:cut[1]], the i-th
	// processor enc[cut[i+1]:cut[i+2]]. A successor copies the bytes of
	// the components it shares instead of encoding them again.
	enc []byte
	cut []int32 // int32 halves the copy each kept successor makes
	// abs is f(state), computed when the state was checked; states with
	// the same f may share it.
	abs *exploreAbs
}

// exploreAbs is f(x) of a frontier state in the explorer's compact form:
// the i-th processor's pending and next are pending[i] and next[i].
type exploreAbs struct {
	queue   []tomachine.Entry
	pending [][]types.Value
	next    []int
}

// compactAbs copies abs, which the next derive overwrites, for a frontier
// state reached by act from a state whose f is pre (nil for the initial
// state). An empty sequence copies to nil whether the worker's scratch was
// nil or not, so a state's f does not depend on which worker derived it.
// Most actions have no abstract counterpart (no bcast, brcv or to-order);
// checkAbstractStep has then found f unchanged, and the successor shares
// pre, which nothing writes.
func compactAbs(members []types.ProcID, pre *exploreAbs, act ioa.Action, abs *AbstractState) *exploreAbs {
	switch act.(type) {
	case tomachine.Bcast, tomachine.Brcv:
	default:
		if pre != nil && len(abs.Queue) == len(pre.queue) {
			return pre
		}
	}
	out := &exploreAbs{queue: append([]tomachine.Entry(nil), abs.Queue...), pending: make([][]types.Value, len(members)), next: make([]int, len(members))}
	for i, p := range members {
		out.pending[i], out.next[i] = append([]types.Value(nil), abs.Pending[p]...), abs.Next[p]
	}
	return out
}

// bcastValues returns the values of the explorer's bcasts: "v1", "v2", ….
func bcastValues(n int) []types.Value {
	vals := make([]types.Value, n)
	for i := range vals {
		vals[i] = types.Value(fmt.Sprintf("v%d", i+1))
	}
	return vals
}

// enabled appends to acts every action available in this state, including
// the environment's (bounded) choices; values are
// bcastValues(cfg.MaxBcasts).
func (s *exploreState) enabled(acts []ioa.Action, cfg ExploreConfig, values []types.Value) []ioa.Action {
	acts = (&vsmachine.Auto{M: s.vs}).Enabled(acts)
	for _, p := range s.procs {
		acts = (&Auto{P: p}).Enabled(acts)
	}
	if int(s.bcasts) < cfg.MaxBcasts {
		val := values[s.bcasts]
		for _, p := range s.vs.Procs().Members() {
			acts = append(acts, tomachine.Bcast{A: val, P: p})
		}
	}
	if int(s.views) < len(cfg.Views) {
		v := cfg.Views[s.views]
		if s.vs.CreateviewEnabled(v) {
			acts = append(acts, vsmachine.Createview{V: v})
		}
	}
	return acts
}

// successor returns the state act leads to, leaving s untouched. Only the
// components with act in their signature are copied (each only in the maps
// act writes) and stepped — the owner performs, a receiver
// takes the input; their state is disjoint, so the order is immaterial.
// Every other component is shared with s.
func (s *exploreState) successor(act ioa.Action) exploreState {
	out := exploreState{vs: s.vs, procs: s.procs, bcasts: s.bcasts, views: s.views}
	switch act.(type) {
	case tomachine.Bcast:
		out.bcasts++
	case vsmachine.Createview:
		out.views++
	}
	if kind := (&vsmachine.Auto{}).Classify(act); kind != ioa.NotInSignature {
		out.vs = s.vs.CloneFor(act)
		a := &vsmachine.Auto{M: out.vs}
		if kind == ioa.Input {
			a.Input(act)
		} else {
			a.Perform(act)
		}
	}
	sharedProcs := true
	for p, proc := range s.procs {
		kind := (&Auto{P: proc}).Classify(act)
		if kind == ioa.NotInSignature {
			continue
		}
		if sharedProcs {
			out.procs, sharedProcs = slices.Clone(s.procs), false
		}
		a := &Auto{P: proc.cloneFor(act)}
		out.procs[p] = a.P
		if kind == ioa.Input {
			a.Input(act)
		} else {
			a.Perform(act)
		}
	}
	return out
}

// system views the state's components as a System, under the quorum
// system every processor shares (majorities of the universe).
func (s *exploreState) system() *System {
	return NewSystem(s.vs, s.procs, s.procs[0].qs)
}

// checkAbstractStep verifies the forward-simulation step condition for one
// edge: starting shadow (a TO-machine over procs) at f(pre), the concrete
// action's abstract counterpart (bcast, zero or more to-orders, brcv, or
// nothing) must be enabled and lead exactly to f(post).
func checkAbstractStep(procs types.ProcSet, pre *exploreAbs, post *AbstractState, act ioa.Action, shadow *tomachine.Machine) error {
	// Copies, so that the shadow's appends never touch pre's storage.
	shadow.Queue = append(shadow.Queue[:0], pre.queue...)
	for i, p := range procs.Members() {
		shadow.Pending[p] = append(shadow.Pending[p][:0], pre.pending[i]...)
		shadow.Next[p] = pre.next[i]
	}
	if b, ok := act.(tomachine.Bcast); ok {
		shadow.ApplyBcast(b.A, b.P)
	}
	if len(post.Queue) < len(pre.queue) {
		return fmt.Errorf("explore: abstract queue shrank")
	}
	for _, e := range post.Queue[len(pre.queue):] {
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

// has reports whether the state with this hash and encoding is in the set.
func (v *exploreVisited) has(hash uint64, enc []byte) bool {
	if v.exact != nil {
		_, ok := v.exact[string(enc)]
		return ok
	}
	_, ok := v.hashes[hash]
	return ok
}

func (v *exploreVisited) add(hash uint64, enc []byte) {
	if v.exact != nil {
		v.exact[string(enc)] = struct{}{}
		return
	}
	v.hashes[hash] = struct{}{}
}

// exploreEdge is one checked transition out of a frontier state, in
// enumeration order.
type exploreEdge struct {
	hash uint64        // successor fingerprint hash (computed before checks)
	succ *exploreState // nil when the wave began with the successor visited
}

// exploreOut is one frontier state's expansion, produced by a worker and
// consumed by the ordered merge.
type exploreOut struct {
	ample bool // expansion reduced to a singleton ample set
	edges []exploreEdge
	err   error // the last edge's invariant or simulation violation
}

// exploreScratch is what one worker reuses from edge to edge: encoding
// buffers, the derivation every check reads (f(x) included) and the step
// check's TO-machine. Edges hand on copies, never pointers into it.
type exploreScratch struct {
	enc    []byte
	cut    []int32
	d      *derived
	shadow *tomachine.Machine
	values []types.Value // bcastValues(cfg.MaxBcasts)
	acts   []ioa.Action  // the enabled actions of the state being expanded
}

// exploreExpand expands one frontier state: enumerate (possibly
// POR-reduced) actions, and for each, build the successor, fingerprint
// it, derive allstate/allcontent/allconfirm once and run every check on
// that one derivation. It reads cur and visited but mutates neither —
// visited is frozen for the duration of the wave, which is what makes
// concurrent expansion race-free. Expansion stops at the state's first
// erroring edge, exactly where the serial explorer stopped.
func exploreExpand(cfg ExploreConfig, cur *exploreState, visited *exploreVisited, sc *exploreScratch) exploreOut {
	var out exploreOut
	procs := cur.vs.Procs()
	if sc.d == nil {
		sc.d, sc.shadow, sc.values = newDerived(), tomachine.New(procs), bcastValues(cfg.MaxBcasts)
	}
	// Encode through locals: the workers' scratch entries are neighbours
	// in memory, and a store per edge would bounce their cache line.
	enc, cut := sc.enc, sc.cut
	acts := cur.enabled(sc.acts[:0], cfg, sc.values)
	sc.acts = acts
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

	out.edges = make([]exploreEdge, 0, len(acts))
	for _, act := range acts {
		succ := cur.successor(act)
		var e exploreEdge
		// Fingerprint before checking: the dedup key must never decide
		// whether a generated state gets checked, so a hash collision can
		// lose an unexplored subtree but can never mask a violation.
		enc, cut = succ.appendFingerprint(enc[:0], cut[:0], cur)
		e.hash = types.HashFingerprint(enc)
		if cfg.fpHook != nil {
			e.hash = cfg.fpHook(e.hash)
		}
		sys := succ.system()
		d := sys.derive(sc.d)
		var abs *AbstractState
		var err error
		if err = sys.checkInvariants(d); err != nil {
			out.err = fmt.Errorf("explore: invariant after %v: %w", act, err)
		} else if err = sys.checkDeepInvariants(d); err != nil {
			out.err = fmt.Errorf("explore: deep invariant after %v: %w", act, err)
		} else if abs, err = sys.abstract(d); err != nil {
			out.err = fmt.Errorf("explore: f undefined after %v: %w", act, err)
		} else if err = checkAbstractStep(procs, cur.abs, abs, act, sc.shadow); err != nil {
			out.err = fmt.Errorf("explore: simulation step for %v: %w", act, err)
		}
		if out.err != nil {
			out.edges = append(out.edges, e)
			break
		}
		// Keep the successor only if it might enter the frontier: already
		// visited before this wave means the merge will drop it anyway, so
		// it never reaches the heap. Intra-wave duplicates are resolved by
		// the merge (first in submission order wins).
		if !visited.has(e.hash, enc) {
			kept := succ
			kept.enc, kept.cut = slices.Clone(enc), slices.Clone(cut)
			kept.abs = compactAbs(procs.Members(), cur.abs, act, abs)
			e.succ = &kept
		}
		out.edges = append(out.edges, e)
	}
	sc.enc, sc.cut = enc, cut
	return out
}

// exploreInitial rejects a configuration with no processor or a negative
// bcast bound, fills in cfg's defaults and builds the initial state of the
// composition, with the encoding and the f every frontier state carries
// (later states get theirs from the edge that generated them).
func exploreInitial(cfg *ExploreConfig) (*exploreState, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("explore: bad config: N = %d, need at least one processor", cfg.N)
	}
	if cfg.MaxBcasts < 0 {
		return nil, fmt.Errorf("explore: bad config: MaxBcasts = %d, need at least 0", cfg.MaxBcasts)
	}
	if cfg.P0Size <= 0 || cfg.P0Size > cfg.N {
		cfg.P0Size = cfg.N
	}
	procs := types.RangeProcSet(cfg.N)
	p0 := types.NewProcSet(procs.Members()[:cfg.P0Size]...)
	qs := types.Majorities{Universe: procs}
	initial := &exploreState{
		vs:    vsmachine.New(procs, p0),
		procs: make([]*Proc, cfg.N),
	}
	for _, p := range procs.Members() {
		pr := NewProc(p, qs, p0)
		pr.TrackHistory = true
		pr.LiteralFigure10Label = cfg.LiteralFigure10Label
		initial.procs[p] = pr
	}
	initial.enc, initial.cut = initial.appendFingerprint(nil, nil, nil)
	abs, err := initial.system().Abstract()
	if err != nil {
		return nil, fmt.Errorf("explore: f undefined at the initial state: %w", err)
	}
	initial.abs = compactAbs(procs.Members(), nil, nil, abs)
	return initial, nil
}

// Explore runs the bounded exhaustive check. It returns an error on the
// first invariant or simulation violation, identifying the failing state
// and action. The error, like every counter in the result, is independent
// of cfg.Workers.
func Explore(cfg ExploreConfig) (ExploreResult, error) {
	var res ExploreResult
	initial, err := exploreInitial(&cfg)
	if err != nil {
		return res, err
	}

	workers := sweep.Workers(cfg.Workers)
	cStates := cfg.Obs.Counter("explore.states")
	cEdges := cfg.Obs.Counter("explore.edges")
	cWaves := cfg.Obs.Counter("explore.waves")
	cAmple := cfg.Obs.Counter("explore.ample_states")
	cSkipped := cfg.Obs.Counter("explore.skipped_edges")
	gFrontier := cfg.Obs.Gauge("explore.frontier")

	visited := newExploreVisited(cfg.ExactKeys)
	h0 := types.HashFingerprint(initial.enc)
	if cfg.fpHook != nil {
		h0 = cfg.fpHook(h0)
	}
	visited.add(h0, initial.enc)
	res.States = 1
	cStates.Inc()

	scratch := make([]exploreScratch, workers)

	frontier := []*exploreState{initial}
	depth := 0
	for len(frontier) > 0 {
		gFrontier.Max(int64(len(frontier)))
		outs := sweep.RunWorker(workers, len(frontier), func(w, i int) exploreOut {
			return exploreExpand(cfg, frontier[i], visited, &scratch[w])
		})
		cWaves.Inc()

		// Ordered merge: scanning states in submission order and their
		// edges in enumeration order replays exactly the serial FIFO BFS,
		// so every counter update and early return below lands in the
		// same sequence a serial run would produce.
		var next []*exploreState
		for i, out := range outs {
			if n := len(frontier[i].abs.queue); n > res.MaxQueueLen {
				res.MaxQueueLen = n
			}
			if out.ample {
				res.AmpleStates++
				cAmple.Inc()
			}
			for j, e := range out.edges {
				res.Edges++
				cEdges.Inc()
				if out.err != nil && j == len(out.edges)-1 {
					res.violationHash = e.hash
					return res, out.err
				}
				if e.succ == nil || visited.has(e.hash, e.succ.enc) {
					continue
				}
				if cfg.MaxStates > 0 && res.States >= cfg.MaxStates {
					res.Truncated = true
					res.SkippedEdges++
					cSkipped.Inc()
					continue
				}
				visited.add(e.hash, e.succ.enc)
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
