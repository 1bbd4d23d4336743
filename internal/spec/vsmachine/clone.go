package vsmachine

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/ioa"
	"repro/internal/types"
)

// CloneFor returns a copy of the machine that act can be applied to
// without changing m. Only the maps act writes are copied; the rest, and
// every message value (immutable by the package's conventions), are shared
// with m. An action outside the machine's signature copies every map.
func (m *Machine) CloneFor(act ioa.Action) *Machine {
	out := *m
	switch act.(type) {
	case Createview:
		out.Created = maps.Clone(m.Created)
	case Newview:
		out.CurrentViewID = maps.Clone(m.CurrentViewID)
	case Gpsnd:
		out.pending = cloneClipped(m.pending)
	case VSOrder:
		out.pending, out.Queue = cloneClipped(m.pending), cloneClipped(m.Queue)
	case Gprcv:
		out.next = maps.Clone(m.next)
	case Safe:
		out.nextSafe = maps.Clone(m.nextSafe)
	default:
		out.Created, out.CurrentViewID = maps.Clone(m.Created), maps.Clone(m.CurrentViewID)
		out.pending, out.Queue = cloneClipped(m.pending), cloneClipped(m.Queue)
		out.next, out.nextSafe = maps.Clone(m.next), maps.Clone(m.nextSafe)
	}
	return &out
}

// cloneClipped copies a map of sequences without copying the sequences:
// each is capped at its length, so the appends in ApplyGpsnd and
// ApplyVSOrder reallocate instead of writing into storage the original
// still reads (nothing else writes a sequence element).
func cloneClipped[K comparable, E any](m map[K][]E) map[K][]E {
	out := make(map[K][]E, len(m))
	for k, v := range m {
		out[k] = slices.Clip(v)
	}
	return out
}

// sortedViewIDs returns the map's keys in ascending order.
func sortedViewIDs[V any](m map[types.ViewID]V) []types.ViewID {
	ids := make([]types.ViewID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, types.ViewID.Cmp)
	return ids
}

// sortedPGs returns the map's keys in ascending (processor, view) order.
func sortedPGs[V any](m map[pg]V) []pg {
	ks := make([]pg, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, func(a, b pg) int {
		if c := cmp.Compare(a.P, b.P); c != 0 {
			return c
		}
		return a.G.Cmp(b.G)
	})
	return ks
}
