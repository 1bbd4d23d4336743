package vsmachine

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/ioa"
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

// sortedKeys appends m's keys to ks, sorted by order. Callers pass an
// empty slice of a stack array, which keeps small key sets off the heap.
func sortedKeys[K comparable, V any](ks []K, m map[K]V, order func(K, K) int) []K {
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, order)
	return ks
}

// cmpPG orders (processor, view) keys by processor, then view.
func cmpPG(a, b pg) int {
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return a.G.Cmp(b.G)
}
