// Package obs is the observability layer: lightweight counters, gauges,
// and fixed-bucket latency histograms, plus a bounded ring-buffer event
// tracer (trace.go). Every layer of the stack — net, membership, vsimpl,
// vstoto, storage/recovery, stack — binds named instruments from one
// Registry at construction time and updates them on its hot paths.
//
// The paper's claims are conditional *performance* properties (TO-property
// and VS-property of Figures 5 and 7, the Section 8 analytic bounds), so
// the quantities they talk about — message counts per layer, view-formation
// latency, token-round timing, delivery-latency distributions — must be
// observable without perturbing the timed experiments that validate them.
// Two design rules follow:
//
//   - all timestamps come from the simulated clock (no time.Now in any
//     deterministic path), so instrumentation never introduces
//     nondeterminism;
//   - the disabled path is zero-allocation and near-zero cost: a nil
//     *Registry hands out nil instruments, and every method on a nil
//     instrument is an inlineable no-op (TestDisabledInstrumentsZeroAlloc
//     pins 0 allocs/op).
//
// Instruments are safe for concurrent use (atomics throughout): the
// simulation itself is single-threaded, but the real-time driver
// (pgcs.LiveCluster) paces the simulator on one goroutine while
// application goroutines read metrics, which is exactly the access pattern
// that raced on the pre-obs ad-hoc counters.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter is a valid disabled counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value (or running-maximum) instrument. The zero value is
// ready to use; a nil *Gauge is a valid disabled gauge.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Max raises the gauge to n if n exceeds the current value.
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds samples with
// 2^(i-1) < d ≤ 2^i nanoseconds (bucket 0 holds d ≤ 1ns), and the last
// bucket is the overflow. 2^47 ns ≈ 39h, far beyond any simulated run.
const histBuckets = 48

// Histogram is a fixed-bucket latency histogram over power-of-two
// nanosecond boundaries. Recording is allocation-free; percentiles are
// resolved to the upper boundary of the covering bucket (exact Min, Max,
// Mean and Count are kept alongside). A nil *Histogram is a valid disabled
// histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	minP1   atomic.Int64 // min+1; 0 means no samples yet
	max     atomic.Int64
}

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d) - 1) // smallest b with d ≤ 2^b
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= int64(d)+1 {
			break
		}
		if h.minP1.CompareAndSwap(cur, int64(d)+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= int64(d) || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns the q-quantile (0 < q ≤ 1), resolved to the upper
// boundary of the bucket containing it; the top sample resolves to the
// exact maximum. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= total {
		return time.Duration(h.max.Load())
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			// Bucket upper bound, clamped to the exact max: the true
			// quantile can never exceed the largest sample.
			ub := int64(1)
			if i > 0 {
				ub = int64(1) << uint(i)
			}
			if max := h.max.Load(); ub > max {
				ub = max
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(h.max.Load())
}

// Summary condenses the histogram for reports.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil || h.count.Load() == 0 {
		return HistogramSummary{}
	}
	n := h.count.Load()
	return HistogramSummary{
		Count:  n,
		MinNS:  h.minP1.Load() - 1,
		MeanNS: h.sum.Load() / n,
		P50NS:  int64(h.Quantile(0.50)),
		P99NS:  int64(h.Quantile(0.99)),
		MaxNS:  h.max.Load(),
	}
}

// HistogramSummary is the JSON-friendly condensation of a histogram.
type HistogramSummary struct {
	Count  int64 `json:"count"`
	MinNS  int64 `json:"min_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Registry holds a run's named instruments and (optionally) its tracer. A
// nil *Registry is the disabled observability layer: it hands out nil
// instruments and a nil tracer, all of which are free no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *Tracer
	clock    func() sim.Time
}

// New creates an enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetClock installs the simulated clock used to timestamp trace events.
// The stack calls it once per cluster; metrics themselves never read the
// clock (latencies are computed by the instrumented layer).
func (r *Registry) SetClock(now func() sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = now
	if r.tracer != nil {
		r.tracer.clock = now
	}
}

// Counter returns (creating if needed) the named counter; nil from a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil from a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil from a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// EnableTrace attaches a ring-buffer tracer of the given capacity (a
// non-positive capacity gets DefaultTraceCapacity). Idempotent: a second
// call keeps the existing tracer.
func (r *Registry) EnableTrace(capacity int) *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracer == nil {
		if capacity <= 0 {
			capacity = DefaultTraceCapacity
		}
		r.tracer = &Tracer{buf: make([]TraceEvent, capacity), clock: r.clock}
	}
	return r.tracer
}

// Tracer returns the attached tracer, or nil (from a nil registry or when
// tracing was never enabled). A nil *Tracer drops every Emit.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Snapshot is a point-in-time copy of every instrument, in JSON-stable
// form (maps marshal with sorted keys).
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. Zero-valued
// instruments are included: a counter that exists but never fired is
// itself a signal (e.g. "no token timeouts"). Returns nil from a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSummary, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Summary()
		}
	}
	return s
}

// merge folds src's samples into h. Buckets, count, and sum add; min and
// max combine — every operation is commutative and associative, so a
// multi-way merge yields the same histogram in any order.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	if n := src.count.Load(); n != 0 {
		h.count.Add(n)
		h.sum.Add(src.sum.Load())
	}
	if sp1 := src.minP1.Load(); sp1 != 0 {
		for {
			cur := h.minP1.Load()
			if cur != 0 && cur <= sp1 {
				break
			}
			if h.minP1.CompareAndSwap(cur, sp1) {
				break
			}
		}
	}
	sm := src.max.Load()
	for {
		cur := h.max.Load()
		if cur >= sm || h.max.CompareAndSwap(cur, sm) {
			break
		}
	}
}

// Merge folds every instrument of src into r, creating instruments that r
// lacks: counters add, gauges take the maximum, histograms combine
// bucket-wise. All three operations are commutative and associative, so
// merging a set of per-run registries produces the same aggregate in any
// order — which is what lets the sweep engine merge per-run metrics from
// parallel workers deterministically. Tracers are not merged (a trace is a
// per-run artifact). Merging from or into a nil registry is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	// Collect instrument pointers under src's lock, then merge through the
	// atomics without holding it: no lock-order coupling between registries.
	type named[T any] struct {
		name string
		v    T
	}
	src.mu.Lock()
	counters := make([]named[*Counter], 0, len(src.counters))
	for name, c := range src.counters {
		counters = append(counters, named[*Counter]{name, c})
	}
	gauges := make([]named[*Gauge], 0, len(src.gauges))
	for name, g := range src.gauges {
		gauges = append(gauges, named[*Gauge]{name, g})
	}
	hists := make([]named[*Histogram], 0, len(src.hists))
	for name, h := range src.hists {
		hists = append(hists, named[*Histogram]{name, h})
	}
	src.mu.Unlock()
	for _, c := range counters {
		r.Counter(c.name).Add(c.v.Value())
	}
	for _, g := range gauges {
		r.Gauge(g.name).Max(g.v.Value())
	}
	for _, h := range hists {
		r.Histogram(h.name).merge(h.v)
	}
}
