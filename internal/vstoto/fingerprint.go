package vstoto

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/types"
)

// Binary fingerprints for the bounded exhaustive explorer. The seed
// explorer keyed its visited set by fmt.Sprintf-built strings — the
// allocation hot path of a run (every generated successor built kilobytes
// of formatted text, and the visited map retained all of it). The binary
// encoding below appends into a worker-owned reusable buffer and the
// visited set stores only the 64-bit FNV-1a hash: ~8 bytes per state
// instead of the full rendering (hash compaction; see DESIGN.md §16 for
// the collision discussion and the check-before-dedup guarantee).

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
	// Each list is encoded before the next reuses its stack array.
	var qbuf [8]types.ProcID
	gots := sortedKeys(qbuf[:0], p.GotState, cmp.Compare[types.ProcID], nil)
	buf = binary.AppendUvarint(buf, uint64(len(gots)))
	for _, q := range gots {
		buf = binary.AppendVarint(buf, int64(q))
		buf = p.GotState[q].AppendFingerprint(buf)
	}
	exs := sortedKeys(qbuf[:0], p.SafeExch, cmp.Compare[types.ProcID], func(ok bool) bool { return ok })
	buf = binary.AppendUvarint(buf, uint64(len(exs)))
	for _, q := range exs {
		buf = binary.AppendVarint(buf, int64(q))
	}
	return p.appendSafeFingerprint(buf)
}

// sortedKeys appends to ks, sorted by order, the keys of m whose value
// keep admits (every key when keep is nil). Callers pass an empty slice of
// a stack array, which keeps small key sets off the heap.
func sortedKeys[K comparable, V any](ks []K, m map[K]V, order func(K, K) int, keep func(V) bool) []K {
	for k, v := range m {
		if keep == nil || keep(v) {
			ks = append(ks, k)
		}
	}
	slices.SortFunc(ks, order)
	return ks
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
