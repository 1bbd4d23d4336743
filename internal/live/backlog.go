package live

import (
	"sync"
	"sync/atomic"
)

// streamBuffer is the fixed part of each of a Client's inbound streams:
// room for a consumer that keeps up. Whatever it has not read beyond that
// waits in the stream's spill.
const streamBuffer = 256

// backlog carries one of a Client's inbound streams from the reader to
// the consumer, in wire order, holding what is unread rather than a slab
// sized for the worst case. Its channel is small and fixed; items behind
// a full channel wait in an in-order spill that a pump goroutine feeds
// into the channel, and the pump runs only while the spill is non-empty.
// At limit unread items the reader sheds instead of stalling. The reader
// alone calls push and end.
type backlog[T any] struct {
	ch    chan T
	limit int
	quit  <-chan struct{} // closed by Client.Close: the spill is dropped

	pumping atomic.Bool // set by push under mu, cleared by the pump under mu

	mu    sync.Mutex
	spill []T  // behind ch, in order; the pump is sending spill[0]
	eof   bool // the reader is done: ch closes once the spill is empty
	pumps sync.WaitGroup
}

func newBacklog[T any](limit int, quit <-chan struct{}) *backlog[T] {
	return &backlog[T]{ch: make(chan T, streamBuffer), limit: limit, quit: quit}
}

// push hands v to the consumer, queues it behind the items already
// waiting, or sheds it once limit items are unread.
func (b *backlog[T]) push(v T) {
	if !b.pumping.Load() {
		// The spill is empty and only push starts a pump, so a send
		// now keeps wire order.
		select {
		case b.ch <- v:
			return
		default:
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ch)+len(b.spill) >= b.limit {
		return // consumer far behind: shed rather than stall the reader
	}
	b.spill = append(b.spill, v)
	if !b.pumping.Load() {
		b.pumping.Store(true)
		b.pumps.Add(1)
		go b.pump()
	}
}

// pump feeds the spill into ch until the spill is empty, then frees it
// and exits; at quit it drops what is left.
func (b *backlog[T]) pump() {
	defer b.pumps.Done()
	b.mu.Lock()
	for len(b.spill) > 0 {
		v := b.spill[0]
		b.mu.Unlock()
		select {
		case b.ch <- v:
			b.mu.Lock()
			clear(b.spill[:1])
			b.spill = b.spill[1:]
		case <-b.quit:
			b.mu.Lock()
			b.spill = nil
		}
	}
	b.spill = nil
	b.pumping.Store(false)
	if b.eof {
		close(b.ch)
	}
	b.mu.Unlock()
}

// end marks the stream complete: ch closes now, or when the pump has
// emptied the spill into it.
func (b *backlog[T]) end() {
	b.mu.Lock()
	b.eof = true
	if !b.pumping.Load() {
		close(b.ch)
	}
	b.mu.Unlock()
}
