package vstoto

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// CheckDeepInvariants verifies the history-dependent invariants of
// Section 6 that need the established/buildorder history variables:
// Lemmas 6.13, 6.14, 6.17, 6.20 and 6.21. They are costlier than
// CheckInvariants (quadratic in places), so the randomized harnesses call
// them per step only for small configurations; the explorer always does.
func (s *System) CheckDeepInvariants() error { return s.checkDeepInvariants(s.derive(newDerived())) }

func (s *System) checkDeepInvariants(d *derived) error {
	procs := s.VS.Procs().Members()
	for _, p := range procs {
		if !s.Procs[p].TrackHistory {
			return nil // history variables absent; nothing to check
		}
	}

	// Lemma 6.17: if established[p, v.id] then every member of v has
	// current.id ≥ v.id.
	for _, p := range procs {
		for _, gid := range s.Procs[p].Established {
			v, ok := s.VS.View(gid)
			if !ok {
				if gid == types.G0() {
					continue // initial view of a sub-universe P0
				}
				return fmt.Errorf("lemma 6.17: established[%v,%v] but view not created", p, gid)
			}
			for _, q := range v.Set.Members() {
				cur := s.Procs[q].Current.ID
				if cur.IsBottom() || cur.Less(gid) {
					return fmt.Errorf("lemma 6.17: established[%v,%v] but member %v is at %v",
						p, gid, q, cur)
				}
			}
		}
	}

	// Lemmas 6.13/6.14: once p established a primary view v and moved on,
	// p's highprimary (6.13) and every summary of p for higher views
	// (6.14) stay at or above v.id.
	for _, p := range procs {
		proc := s.Procs[p]
		for _, gid := range proc.Established {
			if gid == types.G0() {
				continue
			}
			v, ok := s.VS.View(gid)
			if !ok || !s.QS.IsQuorumContained(v.Set) {
				continue
			}
			if !proc.Current.ID.IsBottom() && gid.Less(proc.Current.ID) {
				if proc.HighPrimary.Less(gid) {
					return fmt.Errorf("lemma 6.13: %v established primary %v (now at %v) but highprimary=%v",
						p, gid, proc.Current.ID, proc.HighPrimary)
				}
				for _, sa := range d.allstate {
					if sa.P == p && gid.Less(sa.G) && sa.X.High.Less(gid) {
						return fmt.Errorf("lemma 6.14: allstate[%v,%v] has high=%v < established primary %v",
							sa.P, sa.G, sa.X.High, gid)
					}
				}
			}
		}
	}

	// Lemma 6.20: a label in safe-labels_p implies primary_p, and the
	// order_p prefix through that label is a prefix of buildorder[q, g]
	// at every member q of the current view.
	for _, p := range procs {
		proc := s.Procs[p]
		if proc.safeLen() == 0 {
			continue
		}
		if !proc.Primary() {
			return fmt.Errorf("lemma 6.20: safe-labels_%v nonempty in a non-primary view", p)
		}
		// The prefix check applies to positions whose entire preceding
		// prefix is safe — confirmability requires contiguity, so σ is the
		// contiguous safe prefix of order_p.
		n := 0
		for n < len(proc.Order) && proc.Safe(proc.Order[n]) {
			n++
		}
		sigma := proc.Order[:n]
		for _, q := range proc.Current.Set.Members() {
			bo := s.Procs[q].BuildOrderOf(proc.Current.ID)
			if !isPrefix(sigma, bo) {
				return fmt.Errorf("lemma 6.20: safe prefix of order_%v (len %d) not a prefix of buildorder[%v,%v] (len %d)",
					p, len(sigma), q, proc.Current.ID, len(bo))
			}
		}
	}

	// Lemma 6.21: every summary's ord is closed under
	// sent-before-by-the-same-client with respect to allcontent.
	// Equivalent linear form: for each origin o, the o-labels of ord, read
	// in position order, must be exactly the first k labels of o's sorted
	// allcontent labels, in that sorted order.
	if d.contentErr != nil {
		return d.contentErr
	}
	perOrigin := d.perOrigin
	d.seen = slices.Grow(d.seen[:0], len(perOrigin))[:len(perOrigin)]
	for _, sa := range d.allstate {
		clear(d.seen)
		for i, l := range sa.X.Ord {
			want := perOrigin[l.Origin]
			k := d.seen[l.Origin]
			if k >= len(want) || want[k] != l {
				expected := "none"
				if k < len(want) {
					expected = want[k].String()
				}
				return fmt.Errorf("lemma 6.21: allstate[%v,%v].ord(%d)=%v but origin's next expected label is %s",
					sa.P, sa.G, i+1, l, expected)
			}
			d.seen[l.Origin] = k + 1
		}
	}
	return s.checkLabelRuns()
}

// byOrigin groups the labels of allcontent by origin, in label order,
// into d.perOrigin, indexed by origin over the n processors: walk visits
// the runs' bound labels in label order, so no list needs a sort.
func (d *derived) byOrigin(n int) {
	d.perOrigin = slices.Grow(d.perOrigin[:0], n)[:n]
	for o, ls := range d.perOrigin {
		d.perOrigin[o] = ls[:0]
	}
	d.content.walk(func(i, j int) bool {
		r := &d.content.runs[i]
		d.perOrigin[r.origin] = append(d.perOrigin[r.origin], r.label(j))
		return true
	})
}

// checkLabelRuns checks the premises of the dense label state (labels.go)
// at every processor:
//   - every (view, origin) run of content is seqnos 1..k, with no holes;
//   - every current-view label the safe counts cover has content;
//   - the exchange flag is set only in an established primary view, and
//     then the content of other views is exactly what fullorder(gotstate)
//     holds of them, so that Safe answers as the set of labels would.
func (s *System) checkLabelRuns() error {
	for _, p := range s.VS.Procs().Members() {
		proc := s.Procs[p]
		for i := range proc.content.runs {
			if r := &proc.content.runs[i]; r.holes > 0 {
				return fmt.Errorf("label runs: content_%v of (%v, %v) has %d holes below seqno %d",
					p, r.id, r.origin, r.holes, len(r.vals))
			}
		}
		for _, oc := range proc.safe {
			l := types.Label{ID: proc.Current.ID, Seqno: oc.n, Origin: oc.origin}
			if _, ok := proc.ValueOf(l); !ok {
				return fmt.Errorf("label runs: safe-labels_%v holds %v without content", p, l)
			}
		}
		if !proc.exchSafe {
			continue
		}
		if !proc.Primary() || proc.Status != StatusNormal {
			return fmt.Errorf("label runs: %v holds the exchange safe in %v with status %v", p, proc.Current.ID, proc.Status)
		}
		var err error
		known := proc.GotState.union()
		proc.RangeContent(func(l types.Label, _ types.Value) bool {
			if _, ok := known.get(l); l.ID != proc.Current.ID && !ok {
				err = fmt.Errorf("label runs: content_%v holds %v, which fullorder(gotstate) lacks", p, l)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		for _, l := range proc.GotState.ShortOrder() {
			if _, ok := proc.ValueOf(l); !ok {
				return fmt.Errorf("label runs: fullorder(gotstate)_%v holds %v without content", p, l)
			}
		}
	}
	return nil
}
