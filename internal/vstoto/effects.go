package vstoto

import (
	"slices"
	"unsafe"

	"repro/internal/types"
)

// procEffects is where an explorer worker builds the arrays one action's
// effect gives a processor copy (procFixed.fx): the content runs and values,
// orders, safe counts, gotstate with its summaries, and the history
// variables. The next action's effect overwrites them, so a successor the
// explorer drops leaves nothing on the heap; keep moves the effects of one
// it keeps to the heap (move). A processor with no procEffects (every one
// but the explorer's copy, the stack's included) allocates as it always
// did: the helpers below take a nil region to mean the heap.
type procEffects struct {
	// fixed is the copy's procFixed, which points here, and orig the one
	// it copies, which the copy gets back when it moves out.
	fixed procFixed
	orig  *procFixed

	lab    region[types.Label]
	val    region[types.Value]
	runs   region[labelRun]
	crs    region[ContentRun]
	sums   region[Summary]
	got    region[GotEntry]
	ids    region[types.ProcID]
	counts region[originCount]
	vids   region[types.ViewID]
	orders region[ViewOrder]
}

// The regions of fx, nil when fx is.
func (fx *procEffects) labels() *region[types.Label] {
	if fx == nil {
		return nil
	}
	return &fx.lab
}

func (fx *procEffects) values() *region[types.Value] {
	if fx == nil {
		return nil
	}
	return &fx.val
}

func (fx *procEffects) labelRuns() *region[labelRun] {
	if fx == nil {
		return nil
	}
	return &fx.runs
}

func (fx *procEffects) contentRuns() *region[ContentRun] {
	if fx == nil {
		return nil
	}
	return &fx.crs
}

func (fx *procEffects) gotEntries() *region[GotEntry] {
	if fx == nil {
		return nil
	}
	return &fx.got
}

func (fx *procEffects) procIDs() *region[types.ProcID] {
	if fx == nil {
		return nil
	}
	return &fx.ids
}

func (fx *procEffects) originCounts() *region[originCount] {
	if fx == nil {
		return nil
	}
	return &fx.counts
}

func (fx *procEffects) viewIDs() *region[types.ViewID] {
	if fx == nil {
		return nil
	}
	return &fx.vids
}

func (fx *procEffects) viewOrders() *region[ViewOrder] {
	if fx == nil {
		return nil
	}
	return &fx.orders
}

// summary returns a summary to fill in: in fx, or on the heap.
func (fx *procEffects) summary() *Summary {
	if fx == nil {
		return new(Summary)
	}
	return &fx.sums.alloc(1)[0]
}

// adopt makes p, a copy of a processor whose procFixed is orig, build its
// effects in fx, after the last copy's.
func (fx *procEffects) adopt(p *Proc, orig *procFixed) {
	fx.reset()
	if fx.orig != orig {
		fx.fixed, fx.orig = *orig, orig
		fx.fixed.fx = fx
	}
	p.procFixed = &fx.fixed
}

// release forgets the processor fx last adopted, at the end of a call:
// its procFixed may be freed, and its address reused, before the next.
func (fx *procEffects) release() { fx.fixed, fx.orig = procFixed{}, nil }

// reset hands every region's buffer out again.
func (fx *procEffects) reset() {
	fx.lab.used, fx.val.used, fx.runs.used, fx.crs.used, fx.sums.used = 0, 0, 0, 0, 0
	fx.got.used, fx.ids.used, fx.counts.used, fx.vids.used, fx.orders.used = 0, 0, 0, 0, 0
}

// detach returns a heap copy of x, a summary built in fx, with its runs.
func (fx *procEffects) detach(x *Summary) *Summary {
	out := *x
	out.Runs = slices.Clone(x.Runs)
	return &out
}

// move copies what the action built in fx to the heap, each region's
// used part in one array, and points p, the processor it built it for, at
// the copies: arrays that shared storage in fx share it on the heap.
func (fx *procEffects) move(p *Proc) {
	fx.lab.flush()
	fx.val.flush()
	fx.runs.flush()
	fx.crs.flush()
	fx.sums.flush()
	fx.got.flush()
	fx.ids.flush()
	fx.counts.flush()
	fx.vids.flush()
	fx.orders.flush()
	for i := range fx.runs.kept {
		fx.runs.kept[i].vals = fx.val.moved(fx.runs.kept[i].vals)
	}
	for i := range fx.crs.kept {
		fx.crs.kept[i].Vals = fx.val.moved(fx.crs.kept[i].Vals)
	}
	for i := range fx.sums.kept {
		x := &fx.sums.kept[i]
		x.Runs, x.Ord = fx.crs.moved(x.Runs), fx.lab.moved(x.Ord)
	}
	for i := range fx.got.kept {
		if e := &fx.got.kept[i]; fx.sums.owns(unsafe.Pointer(e.X)) {
			e.X = &fx.sums.moved(unsafe.Slice(e.X, 1))[0]
		}
	}
	for i := range fx.orders.kept {
		fx.orders.kept[i].Ord = fx.lab.moved(fx.orders.kept[i].Ord)
	}
	p.Buffer, p.Order, p.Delay = fx.lab.moved(p.Buffer), fx.lab.moved(p.Order), fx.val.moved(p.Delay)
	p.content.runs, p.GotState = fx.runs.moved(p.content.runs), fx.got.moved(p.GotState)
	p.SafeExch, p.safe = fx.ids.moved(p.SafeExch), fx.counts.moved(p.safe)
	p.Established, p.BuildOrder = fx.vids.moved(p.Established), fx.orders.moved(p.BuildOrder)
	p.procFixed = fx.orig
}

// region hands out arrays of one buffer, which reset hands out again.
type region[E any] struct {
	buf  []E
	used int
	kept []E // the heap copy of buf[:used] that flush made, if any
}

// alloc returns n elements, capacity clipped, for the caller to overwrite.
// A buffer too short for them is left to the arrays already handed out of
// it, and a new one, twice as long, takes its place.
func (r *region[E]) alloc(n int) []E {
	if r.used+n > len(r.buf) {
		r.buf, r.used = make([]E, max(2*len(r.buf), n, 16)), 0
	}
	out := r.buf[r.used : r.used+n : r.used+n]
	r.used += n
	return out
}

// flush copies the used part of the buffer to the heap.
func (r *region[E]) flush() {
	r.kept = nil
	if r.used > 0 {
		r.kept = slices.Clone(r.buf[:r.used])
	}
}

// owns reports whether ptr points into the used part of the buffer.
func (r *region[E]) owns(ptr unsafe.Pointer) bool {
	if r.used == 0 {
		return false
	}
	base, end := uintptr(unsafe.Pointer(&r.buf[0])), uintptr(unsafe.Pointer(&r.buf[r.used-1]))
	return uintptr(ptr) >= base && uintptr(ptr) <= end
}

// moved returns s, or, when s is in the buffer's used part, the same
// stretch of flush's copy, capacity clipped.
func (r *region[E]) moved(s []E) []E {
	if cap(s) == 0 || !r.owns(unsafe.Pointer(&s[:1][0])) {
		return s
	}
	var e E
	off := int((uintptr(unsafe.Pointer(&s[:1][0])) - uintptr(unsafe.Pointer(&r.buf[0]))) / unsafe.Sizeof(e))
	return slices.Clip(r.kept[off : off+len(s)])
}

// allocIn returns n elements from r, for the caller to overwrite, or new
// ones when r is nil.
func allocIn[E any](r *region[E], n int) []E {
	if r == nil {
		return make([]E, n)
	}
	return r.alloc(n)
}

// appendIn returns s with es appended: a new array from r, capacity
// clipped, or append's when r is nil.
func appendIn[E any](r *region[E], s []E, es ...E) []E {
	if r == nil {
		return append(s, es...)
	}
	out := r.alloc(len(s) + len(es))
	copy(out[copy(out, s):], es)
	return out
}

// insertIn returns s with e inserted at i: a new array from r, or
// slices.Insert's when r is nil.
func insertIn[E any](r *region[E], s []E, i int, e E) []E {
	if r == nil {
		return slices.Insert(s, i, e)
	}
	out := r.alloc(len(s) + 1)
	copy(out, s[:i])
	out[i] = e
	copy(out[i+1:], s[i:])
	return out
}

// cloneIn returns a copy of s: from r, or slices.Clone's when r is nil.
func cloneIn[E any](r *region[E], s []E) []E {
	if r == nil || s == nil {
		return slices.Clone(s)
	}
	out := r.alloc(len(s))
	copy(out, s)
	return out
}
