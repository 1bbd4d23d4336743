package vstoto

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

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
// step condition against TO-machine: within the bounds, Theorem 6.26 for
// every interleaving.
//
// The search is a breadth-first wave expansion on the sweep pool: each
// wave's frontier states are expanded concurrently against state the wave
// never mutates, and the results are merged on the calling goroutine in
// submission order. FIFO BFS order is level order with per-level insertion
// order preserved, so the merged accounting and the first violation are
// byte-identical to a serial BFS at every worker count. The visited set is
// read-only during each expansion and written only by the merge: no locks.

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
	ampleHook func([]Act) int
	// memoHook (tests only) sees each successor that took a twin's checks.
	memoHook func(exploreState, Act, *AbstractState)
	// arenaHook (tests only) sees, after each wave's merge, the bytes the
	// workers' two generations hold and the bytes this wave kept.
	arenaHook func(inUse, kept int)
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
	abs *AbstractState
}

// compactAbs copies abs, which the next derive overwrites, for a frontier
// state reached by a from a state whose f is pre (nil for the initial
// state); an empty sequence copies to nil, so a state's f does not depend
// on which worker derived it. When a has no abstract counterpart (no
// bcast, brcv or to-order), checkAbstractStep found f unchanged, and the
// successor shares pre, which nothing writes.
func compactAbs(pre *AbstractState, a Act, abs *AbstractState) *AbstractState {
	if a.Kind != ActBcast && a.Kind != ActBrcv && pre != nil && len(abs.Queue) == len(pre.Queue) {
		return pre
	}
	out := &AbstractState{Queue: append([]tomachine.Entry(nil), abs.Queue...), Pending: make([][]types.Value, len(abs.Pending)),
		Next: append([]int(nil), abs.Next...)}
	for p, vals := range abs.Pending {
		out.Pending[p] = append([]types.Value(nil), vals...)
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

// enabledIn appends to acts every action available in this state, in the
// order the ioa automata enumerate them (VS-machine's, then each
// processor's), then the environment's bounded choices: a bcast of
// values[bcasts] at each processor and the next view of cfg.Views.
// A state-exchange summary a processor would send is built in fx.
func (s *exploreState) enabledIn(acts []Act, cfg ExploreConfig, values []types.Value, fx *procEffects) []Act {
	acts = appendVSActs(acts, s.vs)
	for _, p := range s.procs {
		acts = p.appendActs(acts, fx)
	}
	if int(s.bcasts) < cfg.MaxBcasts {
		for _, p := range s.vs.Procs().Members() {
			acts = append(acts, Act{Kind: ActBcast, A: values[s.bcasts], P: p})
		}
	}
	if int(s.views) < len(cfg.Views) {
		if v := cfg.Views[s.views]; s.vs.CreateviewEnabled(v) {
			acts = append(acts, Act{Kind: ActCreateview, V: v})
		}
	}
	return acts
}

// appendVSActs appends the machine's enabled newview, vs-order, gprcv and
// safe actions, in the order vsmachine.Auto.Enabled enumerates them.
func appendVSActs(acts []Act, m *vsmachine.Machine) []Act {
	for _, v := range m.Created {
		for _, p := range v.Set.Members() {
			if cur := m.CurrentViewID[p]; cur.IsBottom() || cur.Less(v.ID) {
				acts = append(acts, Act{Kind: ActNewview, V: v.View, P: p})
			}
		}
	}
	for i := range m.NumSlots() {
		if p, g, pending := m.SlotAt(i); len(pending) > 0 {
			acts = append(acts, Act{Kind: ActVSOrder, M: pending[0], P: p, V: types.View{ID: g}})
		}
	}
	for _, q := range m.Procs().Members() {
		g := m.CurrentViewID[q]
		queue := m.Queue(g) // empty when g is ⊥
		if n := m.Next(q, g); n <= len(queue) {
			acts = append(acts, Act{Kind: ActGprcv, M: queue[n-1].M, P: queue[n-1].P, Q: q})
		}
		if ns := m.NextSafe(q, g); ns <= len(queue) && m.SafeEnabled(queue[ns-1].M, queue[ns-1].P, q) {
			acts = append(acts, Act{Kind: ActSafe, M: queue[ns-1].M, P: queue[ns-1].P, Q: q})
		}
	}
	return acts
}

// successor returns the state a leads to, leaving s untouched. Only the
// components with a in their signature, VS-machine and at most one
// processor, are copied (each only in the parts a writes) and stepped; the
// rest, and the processor list when no processor is, are shared with s.
// The copies go to the worker's scratch sc (see keep), or to the heap.
func (s *exploreState) successor(a Act, sc *exploreScratch) exploreState {
	out := exploreState{vs: s.vs, procs: s.procs, bcasts: s.bcasts, views: s.views}
	switch a.Kind {
	case ActBcast:
		out.bcasts++
	case ActCreateview:
		out.views++
	}
	if sig := actSigs[a.Kind]; sig.vs {
		var vs *vsmachine.Scratch
		if sc != nil {
			vs = &sc.vs
		}
		out.vs = s.vs.CloneFor(sig.writes, vs)
		a.applyVS(out.vs)
	}
	if p, kind := a.proc(); kind != ioa.NotInSignature {
		var into *Proc
		var fx *procEffects
		if sc != nil {
			out.procs, into, fx = sc.procs, &sc.spare, &sc.fx
		} else {
			out.procs = make([]*Proc, len(s.procs))
		}
		copy(out.procs, s.procs)
		out.procs[p] = s.procs[p].cloneInto(a, into, fx)
		a.apply(out.procs[p])
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
func checkAbstractStep(procs types.ProcSet, pre, post *AbstractState, a Act, shadow *tomachine.Machine) error {
	if len(post.Queue) < len(pre.Queue) {
		return fmt.Errorf("explore: abstract queue shrank")
	}
	// The shadow is pre itself when the step has no abstract counterpart,
	// and otherwise a copy, so that its appends never touch pre's storage.
	queue, pending, next := pre.Queue, pre.Pending, pre.Next
	if a.Kind == ActBcast || a.Kind == ActBrcv || len(post.Queue) > len(pre.Queue) {
		shadow.Queue = append(shadow.Queue[:0], pre.Queue...)
		for _, p := range procs.Members() {
			shadow.Pending[p] = append(shadow.Pending[p][:0], pre.Pending[p]...)
			shadow.Next[p] = pre.Next[p]
		}
		if a.Kind == ActBcast {
			shadow.ApplyBcast(a.A, a.P)
		}
		for _, e := range post.Queue[len(pre.Queue):] {
			if err := shadow.ApplyToOrder(e.A, e.P); err != nil {
				return fmt.Errorf("explore: %w", err)
			}
		}
		if a.Kind == ActBrcv {
			if err := shadow.ApplyBrcv(a.A, a.P, a.Q); err != nil {
				return fmt.Errorf("explore: %w", err)
			}
		}
		queue, pending, next = shadow.Queue, shadow.Pending, shadow.Next
	}
	// Exact correspondence with f(post).
	if len(queue) != len(post.Queue) {
		return fmt.Errorf("explore: queue length %d ≠ f(post) %d", len(queue), len(post.Queue))
	}
	for _, p := range procs.Members() {
		if next[p] != post.Next[p] {
			return fmt.Errorf("explore: next[%v]=%d ≠ f(post) %d", p, next[p], post.Next[p])
		}
		sp, pp := pending[p], post.Pending[p]
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
// generated successor is checked BEFORE the dedup lookup, or found equal,
// not by hash, to a twin that was (see exploreExpand), so the worst a
// collision does is under-count — which the ExactKeys audit tests measure.
type exploreVisited struct {
	hashes map[uint64]struct{}
	exact  map[string]struct{} // non-nil iff ExactKeys
	// full is set for a wave prefix that begins with MaxStates states: the
	// merge adds none of its successors, so none is kept.
	full bool
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
	succ *exploreState // nil when the prefix began with the successor visited
}

// exploreOut is one frontier state's expansion, produced by a worker and
// consumed by the ordered merge.
type exploreOut struct {
	ample bool // expansion reduced to a singleton ample set
	edges []exploreEdge
	// dropped counts the edges to unvisited successors that a full prefix
	// did not keep (their succ is nil): each is a skipped edge.
	dropped int
	err     error // the last edge's invariant or simulation violation
}

// exploreScratch is what one worker reuses from edge to edge: encoding
// buffers, the successor's machine, processor and processor list, the
// derivation every check reads (f(x) included), the step check's shadow.
// Edges hand on copies, never pointers into it.
//
// It also holds the two generations the worker keeps successors in (see
// exploreGen): gen is the one the current wave keeps into.
type exploreScratch struct {
	enc    []byte
	cut    []int32
	procs  []*Proc           // the successor's processor list, until it is kept
	spare  Proc              // the successor's copied processor, until it is kept
	fx     procEffects       // the arrays spare's effect built, until it is kept
	sent   procEffects       // the summaries the state being expanded would send
	vs     vsmachine.Scratch // the successor's copied machine, until it is kept
	d      *derived
	shadow *tomachine.Machine
	values []types.Value // bcastValues(cfg.MaxBcasts)
	acts   []Act         // the enabled actions of the state being expanded

	first map[uint64]*exploreState // the last kept per hash in this wave
	edges []exploreEdge            // emptied once the merge has consumed them

	gens [2]exploreGen
	gen  *exploreGen // nil means gens[0]
	// forward holds processors of the generation before that keep copied
	// forward, with their copies, by address, so that the successors
	// sharing one mostly share one copy.
	forward [64]struct{ from, to *Proc }
}

// exploreGen is one generation of kept states on one worker: every
// successor the worker keeps while one wave is expanded, with all it holds
// but immutable heap values (messages, strings, procFixed, f, and the
// arrays a processor's effects moved to the heap; see procEffects). A
// kept state lives one wave as a successor and one as a parent. Keeping it
// copies forward what it shares with its parent, so no generation points
// into the one before, and the one before is reset, and its storage reused,
// as soon as the next wave begins: two generations are live, at any depth.
type exploreGen struct {
	states    vsmachine.Chunks[exploreState]
	encs      vsmachine.Chunks[byte]
	cuts      vsmachine.Chunks[int32]
	procLists vsmachine.Chunks[*Proc]
	procs     vsmachine.Chunks[Proc]
	vs        vsmachine.Arena
}

func (g *exploreGen) reset() {
	g.states.Reset()
	g.encs.Reset()
	g.cuts.Reset()
	g.procLists.Reset()
	g.procs.Reset()
	g.vs.Reset()
}

// inUse returns the bytes kept in g since its last reset.
func (g *exploreGen) inUse() int {
	return g.states.InUse() + g.encs.InUse() + g.cuts.InUse() + g.procLists.InUse() + g.procs.InUse() + g.vs.InUse()
}

// keep copies the successor s, with enc and cut, into the worker's current
// generation: the state, its encoding and cut, its processor list, and the
// processor in sc.spare and the machine (see vsmachine.Arena.Keep). A
// processor s shares with its parent is copied forward once per wave and
// worker, and the successors that share it share the copy.
func (sc *exploreScratch) keep(s *exploreState, a Act, enc []byte, cut []int32) *exploreState {
	g := sc.gen
	if g == nil {
		g = &sc.gens[0]
	}
	kept := &g.states.Carve(1)[0]
	*kept = *s
	if x, ok := a.M.(*Summary); ok && a.Kind == ActGpsnd && sc.sent.sums.owns(unsafe.Pointer(x)) {
		kept.vs = g.vs.KeepReplacing(s.vs, x, sc.sent.detach(x))
	} else {
		kept.vs = g.vs.Keep(s.vs)
	}
	kept.procs = g.procLists.Carve(len(s.procs))
	for i, p := range s.procs {
		if p == &sc.spare {
			q := &g.procs.Carve(1)[0]
			*q = *p
			sc.fx.move(q)
			kept.procs[i] = q
			continue
		}
		f := &sc.forward[uintptr(unsafe.Pointer(p))/unsafe.Sizeof(*p)%uintptr(len(sc.forward))]
		if f.from != p {
			f.from, f.to = p, &g.procs.Carve(1)[0]
			*f.to = *p
		}
		kept.procs[i] = f.to
	}
	kept.enc = g.encs.Copy(enc)
	kept.cut = g.cuts.Copy(cut)
	return kept
}

// release drops what sc holds of one call (the configuration's fields are
// rebuilt by the next) and resets both generations.
func (sc *exploreScratch) release() {
	sc.d, sc.shadow, sc.values, sc.procs = nil, nil, nil, nil
	sc.spare = Proc{}
	sc.fx.release()
	clear(sc.acts[:cap(sc.acts)])
	clear(sc.first)
	clear(sc.forward[:])
	clear(sc.edges[:cap(sc.edges)])
	sc.edges, sc.gen = sc.edges[:0], nil
	sc.gens[0].reset()
	sc.gens[1].reset()
}

// exploreExpand expands one frontier state: enumerate (possibly
// POR-reduced) actions, and for each, build the successor, fingerprint it,
// run every state check on one derivation (unless a twin passed them) and
// the step check. It reads cur and visited but mutates neither — visited
// is frozen during an expansion, which is what makes concurrent expansion
// race-free. Expansion stops at the state's first erroring edge, exactly
// where the serial explorer stopped.
func exploreExpand(cfg ExploreConfig, cur *exploreState, visited *exploreVisited, sc *exploreScratch) exploreOut {
	var out exploreOut
	procs := cur.vs.Procs()
	if sc.d == nil {
		sc.d, sc.shadow, sc.values = newDerived(), tomachine.New(procs), bcastValues(cfg.MaxBcasts)
		sc.procs = make([]*Proc, len(cur.procs))
	}
	if sc.first == nil {
		sc.first = make(map[uint64]*exploreState)
	}
	// Encode through locals: the workers' scratch entries are neighbours
	// in memory, and a store per edge would bounce their cache line.
	enc, cut := sc.enc, sc.cut
	sc.sent.reset()
	acts := cur.enabledIn(sc.acts[:0], cfg, sc.values, &sc.sent)
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

	edges, start := sc.edges, len(sc.edges)
	for _, act := range acts {
		succ := cur.successor(act, sc)
		var e exploreEdge
		// Fingerprint before checking: the dedup key must never decide
		// whether a generated state gets checked, so a hash collision can
		// lose an unexplored subtree but can never mask a violation.
		enc, cut = succ.appendFingerprint(enc[:0], cut[:0], cur)
		e.hash = types.HashFingerprint(enc)
		if cfg.fpHook != nil {
			e.hash = cfg.fpHook(e.hash)
		}
		// A twin kept earlier in the wave passed every state check and equals
		// succ in all they read: its verdict and f are succ's (DESIGN.md §16).
		twin := sc.first[e.hash]
		same := twin != nil && succ.sameChecks(twin, enc)
		var abs *AbstractState
		var err error
		if same {
			abs = twin.abs
			if cfg.memoHook != nil {
				cfg.memoHook(succ, act, abs)
			}
		} else {
			sys := succ.system()
			d := sys.derive(sc.d)
			if err = sys.checkInvariants(d); err != nil {
				out.err = fmt.Errorf("explore: invariant after %v: %w", act, err)
			} else if err = sys.checkDeepInvariants(d); err != nil {
				out.err = fmt.Errorf("explore: deep invariant after %v: %w", act, err)
			} else if abs, err = sys.abstract(d); err != nil {
				out.err = fmt.Errorf("explore: f undefined after %v: %w", act, err)
			}
		}
		if out.err == nil {
			if err = checkAbstractStep(procs, cur.abs, abs, act, sc.shadow); err != nil {
				out.err = fmt.Errorf("explore: simulation step for %v: %w", act, err)
			}
		}
		if out.err != nil {
			edges = append(edges, e)
			break
		}
		// Keep the successor only if it might enter the frontier: already
		// visited before this prefix means the merge will drop it anyway, so
		// it never reaches the heap. The merge resolves intra-wave duplicates
		// (first in submission order wins), so a twin is shared, not kept.
		switch {
		case visited.has(e.hash, enc):
		case visited.full:
			out.dropped++
		case same:
			e.succ = twin
		default:
			succ.abs = compactAbs(cur.abs, act, abs)
			e.succ = sc.keep(&succ, act, enc, cut)
			sc.first[e.hash] = e.succ
		}
		edges = append(edges, e)
	}
	out.edges, sc.edges = edges[start:len(edges):len(edges)], edges
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
	initial.abs = compactAbs(nil, Act{}, abs)
	return initial, nil
}

// exploreRun is what Explore reuses from call to call, through
// explorePool: the workers' scratch with both generations' storage, the
// visited set's maps, the expansions' slots and the frontier buffers. A
// loop of bounded checks allocates them once. Every return path of Explore
// resets the run before putting it back, and nothing else outlives a call.
type exploreRun struct {
	scratch        []exploreScratch
	visited        exploreVisited
	hashes         map[uint64]struct{}
	exact          map[string]struct{}
	outs           []exploreOut
	frontier, next []*exploreState
}

var explorePool = sync.Pool{New: func() any { return new(exploreRun) }}

// start readies r for a call with this many workers and cfg's visited set,
// whose map is sized for MaxStates (at most 2^20 entries) the first time.
func (r *exploreRun) start(workers int, cfg ExploreConfig) {
	if len(r.scratch) < workers {
		grown := make([]exploreScratch, workers)
		copy(grown, r.scratch)
		r.scratch = grown
	}
	n := min(cfg.MaxStates, 1<<20)
	switch {
	case cfg.ExactKeys && r.exact == nil:
		r.exact = make(map[string]struct{}, n)
	case !cfg.ExactKeys && r.hashes == nil:
		r.hashes = make(map[uint64]struct{}, n)
	}
	r.visited = exploreVisited{hashes: r.hashes}
	if cfg.ExactKeys {
		r.visited = exploreVisited{exact: r.exact}
	}
}

// release resets r, whatever the call ended in, and puts it back.
func (r *exploreRun) release() {
	for w := range r.scratch {
		r.scratch[w].release()
	}
	clear(r.hashes)
	clear(r.exact)
	r.visited = exploreVisited{}
	clear(r.outs[:cap(r.outs)])
	clear(r.frontier[:cap(r.frontier)])
	clear(r.next[:cap(r.next)])
	explorePool.Put(r)
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

	run := explorePool.Get().(*exploreRun)
	defer run.release()
	run.start(workers, cfg)
	visited, scratch := &run.visited, run.scratch[:workers]
	h0 := types.HashFingerprint(initial.enc)
	if cfg.fpHook != nil {
		h0 = cfg.fpHook(h0)
	}
	visited.add(h0, initial.enc)
	res.States = 1
	cStates.Inc()

	frontier := append(run.frontier[:0], initial)
	for depth := 0; len(frontier) > 0; depth++ {
		gFrontier.Max(int64(len(frontier)))
		// This wave keeps into the generation that held the wave before
		// last: the frontier's parents, which nothing reads any more.
		base := 0
		for w := range scratch {
			sc := &scratch[w]
			clear(sc.first)
			clear(sc.forward[:])
			sc.gen = &sc.gens[(depth+1)%2]
			sc.gen.reset()
			base += sc.gen.inUse()
		}
		next := run.next[:0]
		// Near MaxStates, expand and merge the wave in prefixes (room states,
		// then at least twice the last) so that nothing is kept past the cap.
		for lo, hi, size := 0, 0, 1; lo < len(frontier); lo, size = hi, 2*size {
			room := cfg.MaxStates - res.States
			visited.full, hi = cfg.MaxStates > 0 && room <= 0, len(frontier)
			if cfg.MaxStates > 0 && room > 0 {
				hi = min(hi, lo+max(room, size))
			}
			for w := range scratch {
				clear(scratch[w].edges)
				scratch[w].edges = scratch[w].edges[:0]
			}
			part := frontier[lo:hi]
			outs := slices.Grow(run.outs[:0], len(part))[:len(part)]
			run.outs = outs
			sweep.RunWorker(workers, len(part), func(w, i int) struct{} {
				outs[i] = exploreExpand(cfg, part[i], visited, &scratch[w])
				return struct{}{}
			})

			// Ordered merge: scanning states in submission order and their
			// edges in enumeration order replays exactly the serial FIFO
			// BFS, so every counter update and early return below lands in
			// the same sequence a serial run would produce.
			for i, out := range outs {
				if n := len(part[i].abs.Queue); n > res.MaxQueueLen {
					res.MaxQueueLen = n
				}
				if out.ample {
					res.AmpleStates++
					cAmple.Inc()
				}
				if out.dropped > 0 {
					res.Truncated = true
					res.SkippedEdges += out.dropped
					cSkipped.Add(int64(out.dropped))
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
		}
		cWaves.Inc()
		if cfg.arenaHook != nil {
			inUse, kept := 0, -base
			for w := range scratch {
				inUse += scratch[w].gens[0].inUse() + scratch[w].gens[1].inUse()
				kept += scratch[w].gen.inUse()
			}
			cfg.arenaHook(inUse, kept)
		}
		if len(next) > 0 {
			res.MaxDepth = depth + 1
		}
		run.frontier, run.next = next, frontier
		frontier = next
	}
	return res, nil
}
