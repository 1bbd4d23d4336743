package transport

import "repro/internal/types"

// QueuedFor reports how many messages wait in the send queue to peer id
// (0 for an unknown peer).
func (t *TCP) QueuedFor(id types.ProcID) int {
	t.mu.Lock()
	p := t.peers[id]
	t.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.q.depth()
}
