package vstoto

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/types"
)

// VStoTO_p's label state as dense runs (DESIGN.md §5). A label's seqno
// counts its origin's labels in its view from 1 (Figure 9), and a
// processor learns each (view, origin) pair's labels as a prefix: its own
// as it assigns them, a peer's through VS's per-sender FIFO delivery, a
// summary's as its sender's prefix. So content is one value slice per
// (view, origin), indexed by seqno − 1, and safe-labels is a count per
// origin plus one flag. checkLabelRuns checks both premises wherever the
// Section 6 invariants are checked. A summary's content is the same runs
// (ContentRun), so the state exchange builds, merges and unions them
// without a map or a sort.

// labelRun is the content of one (view, origin) pair: vals[s−1] is the
// value of ⟨id, s, origin⟩.
type labelRun struct {
	id     types.ViewID
	origin types.ProcID
	vals   []types.Value
	// missing marks the indexes below len(vals) that are unbound, and holes
	// counts them. A merge of a content that is not a prefix (a hand-built
	// summary's, a replayed log's) leaves holes until later merges fill
	// them; missing is nil whenever holes is 0.
	missing []uint64
	holes   int
}

// bound reports whether vals[i] is bound.
func (r *labelRun) bound(i int) bool {
	if i >= len(r.vals) {
		return false
	}
	w := i / 64
	return r.holes == 0 || w >= len(r.missing) || r.missing[w]&(1<<(i%64)) == 0
}

// label returns the label bound at vals[i].
func (r *labelRun) label(i int) types.Label {
	return types.Label{ID: r.id, Seqno: i + 1, Origin: r.origin}
}

// labelRuns is a label→value relation as runs sorted by (view, origin).
type labelRuns struct {
	runs []labelRun
	n    int // bound labels
}

// run returns the index of l's run, or where it would be inserted.
func (c *labelRuns) run(l types.Label) (int, bool) { return c.runFrom(0, l) }

// runFrom is run for a label whose run is not before c.runs[lo]. A walk
// over a summary's sorted runs passes the index after the last run it
// found, which is most often the one it wants next. The search is written
// out: the comparison inlined here costs a third of
// slices.BinarySearchFunc's.
func (c *labelRuns) runFrom(lo int, l types.Label) (int, bool) {
	if lo < len(c.runs) && c.runs[lo].id == l.ID && c.runs[lo].origin == l.Origin {
		return lo, true
	}
	hi := len(c.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		r := &c.runs[m]
		if r.id.Epoch < l.ID.Epoch || r.id.Epoch == l.ID.Epoch &&
			(r.id.Proc < l.ID.Proc || r.id.Proc == l.ID.Proc && r.origin < l.Origin) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.runs) && c.runs[lo].id == l.ID && c.runs[lo].origin == l.Origin
}

// get returns the value bound to l.
func (c *labelRuns) get(l types.Label) (types.Value, bool) {
	i, ok := c.run(l)
	if !ok || l.Seqno < 1 || !c.runs[i].bound(l.Seqno-1) {
		return "", false
	}
	return c.runs[i].vals[l.Seqno-1], true
}

// setIn binds l to a, unless l is bound already: content is a function
// system-wide (Lemma 6.5), so a second binding carries the same value, and
// a merge need not read the value it would overwrite. Arrays a clone, a
// summary or gotstate may share are never written in place: they hold
// them clipped, so an append reallocates, and clone copies a run with
// holes, so filling one writes only an owned array (a summary shares only
// bound stretches, which no fill touches). The arrays it makes come from
// fx (see procEffects).
func (c *labelRuns) setIn(fx *procEffects, l types.Label, a types.Value) {
	if l.Seqno < 1 {
		panic(fmt.Sprintf("vstoto: label %v has seqno < 1", l))
	}
	i, ok := c.run(l)
	if !ok {
		c.runs = insertIn(fx.labelRuns(), c.runs, i, labelRun{id: l.ID, origin: l.Origin})
	}
	r, j := &c.runs[i], l.Seqno-1
	switch {
	case j == len(r.vals):
		r.vals = appendIn(fx.values(), r.vals, a)
		c.n++
	case j > len(r.vals): // the seqnos in between become holes
		for len(r.missing) <= j/64 {
			r.missing = append(r.missing, 0)
		}
		for k := len(r.vals); k < j; k++ {
			r.missing[k/64] |= 1 << (k % 64)
		}
		r.holes += j - len(r.vals)
		r.vals = append(r.vals, make([]types.Value, j-len(r.vals)+1)...)
		r.vals[j] = a
		c.n++
	case !r.bound(j):
		r.missing[j/64] &^= 1 << (j % 64)
		if r.holes--; r.holes == 0 {
			r.missing = nil
		}
		r.vals[j] = a
		c.n++
	}
}

// copyIn returns a copy that either side can write without the other
// seeing it (see setIn), its runs from fx.
func (c *labelRuns) copyIn(fx *procEffects) labelRuns {
	runs := cloneIn(fx.labelRuns(), c.runs)
	for i := range runs {
		if r := &runs[i]; r.holes > 0 {
			r.vals, r.missing = slices.Clone(r.vals), slices.Clone(r.missing)
		} else {
			r.vals = slices.Clip(r.vals)
		}
	}
	return labelRuns{runs: runs, n: c.n}
}

// walk calls fn with the run index and value index of every bound label,
// in label order (view, then seqno, then origin), until fn returns false.
func (c *labelRuns) walk(fn func(i, j int) bool) {
	for lo := 0; lo < len(c.runs); {
		hi, longest := lo, 0
		for ; hi < len(c.runs) && c.runs[hi].id == c.runs[lo].id; hi++ {
			longest = max(longest, len(c.runs[hi].vals))
		}
		for j := 0; j < longest; j++ {
			for i := lo; i < hi; i++ {
				if c.runs[i].bound(j) && !fn(i, j) {
					return
				}
			}
		}
		lo = hi
	}
}

// mergeAll binds every pair of runs, sorted as a summary's are.
func (c *labelRuns) mergeAll(fx *procEffects, runs []ContentRun, share bool) {
	i := 0
	for _, r := range runs {
		i = c.merge(fx, i, r, share)
	}
}

// merge binds every pair of r, whose run is not before c.runs[from], and
// returns the index of its run. Where r continues a run without holes,
// only the suffix the run lacks is appended. With share, the run takes
// r's values instead, capacity clipped, when r starts at seqno 1 and
// reaches at least as far as the run: content is a function system-wide
// (Lemma 6.5), so the values it replaces are the same.
func (c *labelRuns) merge(fx *procEffects, from int, r ContentRun, share bool) int {
	if len(r.Vals) == 0 {
		return from
	}
	if r.First < 1 {
		panic(fmt.Sprintf("vstoto: run of %v@%v from seqno %d < 1", r.ID, r.Origin, r.First))
	}
	i, ok := c.runFrom(from, types.Label{ID: r.ID, Origin: r.Origin})
	if !ok {
		c.runs = insertIn(fx.labelRuns(), c.runs, i, labelRun{id: r.ID, origin: r.Origin})
	}
	run, skip, end := &c.runs[i], r.First-1, r.First-1+len(r.Vals)
	switch {
	case run.holes > 0 || skip > len(run.vals):
		for k, a := range r.Vals {
			c.setIn(fx, types.Label{ID: r.ID, Seqno: r.First + k, Origin: r.Origin}, a)
		}
	case end <= len(run.vals):
	case share && skip == 0:
		c.n += end - len(run.vals)
		run.vals = slices.Clip(r.Vals)
	default:
		c.n += end - len(run.vals)
		run.vals = appendIn(fx.values(), run.vals, r.Vals[len(run.vals)-skip:]...)
	}
	return i
}

// segments returns c as a summary's runs, sharing the values with their
// capacity clipped: one per run, or one per stretch between a run's holes.
// The array comes from fx (the heap's, past one per run).
func (c *labelRuns) segments(fx *procEffects) []ContentRun {
	out := allocIn(fx.contentRuns(), len(c.runs))[:0]
	for i := range c.runs {
		r := &c.runs[i]
		if r.holes == 0 {
			out = append(out, ContentRun{ID: r.id, Origin: r.origin, First: 1, Vals: slices.Clip(r.vals)})
			continue
		}
		for j := 0; j < len(r.vals); {
			k := j
			for k < len(r.vals) && r.bound(k) {
				k++
			}
			if k > j {
				out = append(out, ContentRun{ID: r.id, Origin: r.origin, First: j + 1, Vals: r.vals[j:k:k]})
			}
			for k < len(r.vals) && !r.bound(k) {
				k++
			}
			j = k
		}
	}
	return out
}

// views returns runs, in an array from fx, with each run's values
// replaced by the same stretch of c, capacity clipped. c must bind every
// label of runs.
func (c *labelRuns) views(fx *procEffects, runs []ContentRun) []ContentRun {
	out, i := allocIn(fx.contentRuns(), len(runs)), 0
	for k, r := range runs {
		i, _ = c.runFrom(i, types.Label{ID: r.ID, Origin: r.Origin})
		lo, hi := r.First-1, r.First-1+len(r.Vals)
		out[k] = ContentRun{ID: r.ID, Origin: r.Origin, First: r.First, Vals: c.runs[i].vals[lo:hi:hi]}
	}
	return out
}

// appendExtras appends to dst, in label order, every bound label that
// order does not hold: a bitmap over the run slots, not a set of labels.
func (c *labelRuns) appendExtras(dst, order []types.Label) []types.Label {
	off := make([]int, len(c.runs)+1)
	for i := range c.runs {
		off[i+1] = off[i] + len(c.runs[i].vals)
	}
	ordered := make([]uint64, (off[len(c.runs)]+63)/64)
	for _, l := range order {
		if i, ok := c.run(l); ok && l.Seqno >= 1 && l.Seqno <= len(c.runs[i].vals) {
			k := off[i] + l.Seqno - 1
			ordered[k/64] |= 1 << (k % 64)
		}
	}
	c.walk(func(i, j int) bool {
		if k := off[i] + j; ordered[k/64]&(1<<(k%64)) == 0 {
			dst = append(dst, c.runs[i].label(j))
		}
		return true
	})
	return dst
}

// originCount says that origin's current-view labels up to seqno n are
// safe.
type originCount struct {
	origin types.ProcID
	n      int
}

// safeLabels is safe-labels_p without its flag. VS reports safe in each
// sender's order, so the current view's safe labels of an origin are
// seqnos 1..n: safeLabels holds those counts, sorted by origin. The state
// exchange, once safe in a primary view, makes fullorder(gotstate) safe:
// its current-view labels are counted here, and its other labels are
// exactly the content of the views before, which nothing adds to after
// establishment, so the flag Proc.exchSafe stands for them.
type safeLabels []originCount

// count returns origin's safe prefix length and its index in s (or where
// it would be inserted).
func (s safeLabels) count(origin types.ProcID) (int, int) {
	i, ok := slices.BinarySearchFunc(s, origin, func(oc originCount, o types.ProcID) int {
		return cmp.Compare(oc.origin, o)
	})
	if !ok {
		return 0, i
	}
	return s[i].n, i
}

// raiseIn makes origin's current-view labels up to seqno n safe, inserting
// into an array from fx.
func (s *safeLabels) raiseIn(fx *procEffects, origin types.ProcID, n int) {
	k, i := s.count(origin)
	switch {
	case n <= k:
	case k == 0:
		*s = insertIn(fx.originCounts(), *s, i, originCount{origin, n})
	default:
		(*s)[i].n = n
	}
}

// ValueOf returns the value content_p binds l to.
func (p *Proc) ValueOf(l types.Label) (types.Value, bool) { return p.content.get(l) }

// ContentLen returns the number of labels content_p binds.
func (p *Proc) ContentLen() int { return p.content.n }

// RangeContent calls fn for every pair of content_p in label order until
// fn returns false.
func (p *Proc) RangeContent(fn func(types.Label, types.Value) bool) {
	p.content.walk(func(i, j int) bool {
		r := &p.content.runs[i]
		return fn(r.label(j), r.vals[j])
	})
}

// MergeContent binds every pair of runs in content_p, as gprcv of a
// summary does and as restoring a processor from a replayed log needs.
// Runs that continue content_p's runs append only the suffix content_p
// lacks; the union of two prefixes is a prefix, so where content_p and
// runs were both dense the merge leaves no holes.
func (p *Proc) MergeContent(runs []ContentRun) { p.content.mergeAll(p.fx, runs, false) }

// AppendExtras appends to dst, in label order, the labels content_p binds
// that order does not hold (a checkpoint's unordered labels).
func (p *Proc) AppendExtras(dst, order []types.Label) []types.Label {
	return p.content.appendExtras(dst, order)
}

// Safe reports whether l is in safe-labels_p.
func (p *Proc) Safe(l types.Label) bool {
	if l.ID != p.Current.ID {
		_, ok := p.content.get(l)
		return p.exchSafe && ok
	}
	n, _ := p.safe.count(l.Origin)
	return l.Seqno >= 1 && l.Seqno <= n
}

// safeLen returns the size of safe-labels_p: the counted prefixes, and
// with exchSafe every label content_p binds outside the current view.
func (p *Proc) safeLen() int {
	n := 0
	for _, oc := range p.safe {
		n += oc.n
	}
	if p.exchSafe {
		n += p.content.n
		for i := range p.content.runs {
			if r := &p.content.runs[i]; r.id == p.Current.ID {
				n -= len(r.vals) - r.holes
			}
		}
	}
	return n
}

// appendContentFingerprint appends content_p's canonical encoding: the
// count, then every pair in label order.
func (p *Proc) appendContentFingerprint(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.content.n))
	p.content.walk(func(i, j int) bool {
		r := &p.content.runs[i]
		buf = r.label(j).AppendFingerprint(buf)
		buf = types.AppendFingerprintString(buf, string(r.vals[j]))
		return true
	})
	return buf
}

// appendSafeFingerprint appends safe-labels_p's canonical encoding: the
// count, then every label in label order.
func (p *Proc) appendSafeFingerprint(buf []byte) []byte {
	var lbuf [8]types.Label
	safe := lbuf[:0]
	if p.exchSafe {
		p.RangeContent(func(l types.Label, _ types.Value) bool {
			if l.ID != p.Current.ID {
				safe = append(safe, l)
			}
			return true
		})
	}
	for _, oc := range p.safe {
		for s := 1; s <= oc.n; s++ {
			safe = append(safe, types.Label{ID: p.Current.ID, Seqno: s, Origin: oc.origin})
		}
	}
	slices.SortFunc(safe, types.Label.Compare)
	buf = binary.AppendUvarint(buf, uint64(len(safe)))
	for _, l := range safe {
		buf = l.AppendFingerprint(buf)
	}
	return buf
}
