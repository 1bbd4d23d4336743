package transport

import (
	"time"

	"repro/internal/types"
)

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

// SetLimits replaces the send-queue bound (in frames), the messages per
// frame and the dial backoff bounds; call it between NewTCP and Start. A
// zero keeps the shipped constant.
func (t *TCP) SetLimits(queue, batchMsgs int, dialMin, dialMax time.Duration) {
	if queue > 0 {
		t.lim.queue = queue
	}
	if batchMsgs > 0 {
		t.lim.batchMsgs = batchMsgs
	}
	if dialMin > 0 {
		t.lim.dialMin = dialMin
	}
	if dialMax > 0 {
		t.lim.dialMax = dialMax
	}
}
