package vstoto

import (
	"encoding/binary"
	"slices"

	"repro/internal/types"
)

// Binary fingerprints for the bounded exhaustive explorer: a canonical
// encoding appended into a worker-owned buffer, whose 64-bit FNV-1a hash
// keys the visited set (hash compaction; DESIGN.md §16 has the collision
// discussion and the check-before-dedup guarantee).

// AppendFingerprint appends the pair's canonical encoding (tag 0x10 keeps
// it disjoint from Summary's under vsmachine's message framing).
func (lv LabeledValue) AppendFingerprint(buf []byte) []byte {
	buf = append(buf, 0x10)
	buf = lv.L.AppendFingerprint(buf)
	return types.AppendFingerprintString(buf, string(lv.A))
}

// AppendFingerprint appends the summary's canonical content encoding
// (tag 0x11): con in ascending label order, then ord, next, high.
// Summaries travel by pointer, but two structurally equal summaries must
// encode identically — the visited set is about state, not identity.
func (x *Summary) AppendFingerprint(buf []byte) []byte {
	buf = append(buf, 0x11)
	runs, n := x.ContentRuns(), 0
	for _, r := range runs {
		n += len(r.Vals)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	walkRuns(runs, func(l types.Label, a types.Value) {
		buf = l.AppendFingerprint(buf)
		buf = types.AppendFingerprintString(buf, string(a))
	})
	buf = binary.AppendUvarint(buf, uint64(len(x.Ord)))
	for _, l := range x.Ord {
		buf = l.AppendFingerprint(buf)
	}
	buf = binary.AppendVarint(buf, int64(x.Next))
	return x.High.AppendFingerprint(buf)
}

// AppendFingerprint appends the processor's canonical encoding. History
// variables are excluded: they are functions of the reachable state and
// only consumed by the invariant checker.
func (p *Proc) AppendFingerprint(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(p.id))
	buf = p.Current.AppendFingerprint(buf)
	buf = binary.AppendVarint(buf, int64(p.NextSeqno))
	buf = binary.AppendVarint(buf, int64(p.Status))
	buf = binary.AppendVarint(buf, int64(p.NextConfirm))
	buf = binary.AppendVarint(buf, int64(p.NextReport))
	buf = p.HighPrimary.AppendFingerprint(buf)
	for _, ls := range [][]types.Label{p.Buffer, p.Order} {
		buf = binary.AppendUvarint(buf, uint64(len(ls)))
		for _, l := range ls {
			buf = l.AppendFingerprint(buf)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Delay)))
	for _, a := range p.Delay {
		buf = types.AppendFingerprintString(buf, string(a))
	}
	buf = p.appendContentFingerprint(buf)
	buf = binary.AppendUvarint(buf, uint64(len(p.GotState)))
	for _, e := range p.GotState {
		buf = binary.AppendVarint(buf, int64(e.Q))
		buf = e.X.AppendFingerprint(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.SafeExch)))
	for _, q := range p.SafeExch {
		buf = binary.AppendVarint(buf, int64(q))
	}
	return p.appendSafeFingerprint(buf)
}

// appendFingerprint appends the composed state's canonical encoding — the
// environment counters, the VS machine, then every processor in universe
// order — and appends to cut the component boundaries exploreState.cut
// describes. A component s shares with parent (nil for the initial state)
// contributes the bytes parent already encoded; the encoding is the same
// either way.
func (s *exploreState) appendFingerprint(buf []byte, cut []int32, parent *exploreState) ([]byte, []int32) {
	buf = binary.AppendVarint(buf, int64(s.bcasts))
	buf = binary.AppendVarint(buf, int64(s.views))
	cut = append(cut, int32(len(buf)))
	if parent != nil && s.vs == parent.vs {
		buf = append(buf, parent.enc[parent.cut[0]:parent.cut[1]]...)
	} else {
		buf = s.vs.AppendFingerprint(buf)
	}
	cut = append(cut, int32(len(buf)))
	for i, p := range s.procs {
		if parent != nil && p == parent.procs[i] {
			buf = append(buf, parent.enc[parent.cut[i+1]:parent.cut[i+2]]...)
		} else {
			buf = p.AppendFingerprint(buf)
		}
		cut = append(cut, int32(len(buf)))
	}
	return buf, cut
}

// sameChecks reports whether s, encoded as enc, is k to every state check.
func (s *exploreState) sameChecks(k *exploreState, enc []byte) bool {
	if string(enc) != string(k.enc) {
		return false
	}
	for i, p := range s.procs {
		if q := k.procs[i]; p != q && !p.sameUnencoded(q) {
			return false
		}
	}
	return true
}

// sameUnencoded reports whether p and q, which encode alike, have the same
// history, label-run holes, and safe counts and flag (encoded as one set).
func (p *Proc) sameUnencoded(q *Proc) bool {
	sameOrder := func(a, b ViewOrder) bool { return a.G == b.G && slices.Equal(a.Ord, b.Ord) }
	sameHoles := func(a, b labelRun) bool { return a.holes == b.holes && slices.Equal(a.missing, b.missing) }
	return p.exchSafe == q.exchSafe && slices.Equal(p.safe, q.safe) && slices.Equal(p.Established, q.Established) &&
		slices.EqualFunc(p.BuildOrder, q.BuildOrder, sameOrder) && slices.EqualFunc(p.content.runs, q.content.runs, sameHoles)
}
