package recovery

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// BenchmarkWALAppend measures the per-record cost of the WAL hot path
// (frame + enqueue + durable completion) with a zero-latency device, so
// the number is the framing overhead rather than simulated I/O time. The
// record mix mirrors a steady-state primary view: an order append and a
// delivery per value.
func BenchmarkWALAppend(b *testing.B) {
	s := sim.New(1)
	w := New(storage.New(s, 0))
	l := types.Label{ID: types.G0(), Seqno: 1, Origin: 2}
	const val = types.Value("a typical client payload value")

	b.Run("order-append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.OrderAppend(i+1, l, val, nil)
			if err := s.Run(sim.Never); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deliver", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Deliver(i+1, l, 2, i, val, nil)
			if err := s.Run(sim.Never); err != nil {
				b.Fatal(err)
			}
		}
	})
}
