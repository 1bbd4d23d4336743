package main

import (
	"fmt"
	"syscall"
	"time"
)

// env is what one invocation hands every workload.
type env struct {
	seed    int64
	seconds float64 // wall-clock length of the measured window
	// maxOps is set by bench_test.go only (no flag reaches it): > 0 ends the
	// window after this many ops instead of after seconds, so test sizes, and
	// with them every simulated count and virtual time, are exact.
	maxOps int
	dir    string // scratch directory inside the checkout (live WAL/trace files)
}

// stopped reports whether the measured window is over.
func (e *env) stopped(start time.Time, ops int) bool {
	if e.maxOps > 0 {
		return ops >= e.maxOps
	}
	return time.Since(start).Seconds() >= e.seconds
}

// workload is one named traffic mix. boot brings the system up until a
// probe value has been delivered at every node (that interval is setup_s);
// the returned system then runs one measured pass.
type workload struct {
	name string
	why  string
	// setups is how many boots the median setup_s is taken over (more for
	// the workloads whose boot is only milliseconds).
	setups int
	// epochs splits the window over this many fresh boots of the system,
	// each measured on its own; rates are the median over epochs.
	epochs int
	boot   func(e *env, traced bool) (system, error)
}

type system interface {
	// measure runs the load for the window, drains, verifies every output
	// and returns the pass; a failed check is an error.
	measure(e *env) (*pass, error)
	close()
}

// pass is one measured run of a workload. The four generic end-to-end
// numbers are what BENCHMARK.json names; detail carries the same run under
// the workload's own vocabulary (commit_latency_ms_p50, virt_recovery_ms…)
// plus everything that is informative but unbounded.
type pass struct {
	attempted, failed int
	throughput        float64        // ops/s (meaning per workload: see README)
	latencyMS         []float64      // raw samples
	lat               latencySummary // of latencyMS; over epochs, the median of each epoch's p50 and tail
	heapMB            float64
	cpuMSPerOp        float64 // process CPU time over the window ÷ ops
	digest            string
	// describe adds the workload's own names for the numbers above to
	// detail; it runs once, on the merged pass.
	describe func(p *pass)
	detail   []detail
	layers   map[string]float64 // per-layer metrics (traced pass only)
	spans    []span
	registry *snapshot
}

type detail struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

func (p *pass) add(name string, v float64, unit string, samples int, note string) {
	p.detail = append(p.detail, detail{Name: name, Value: v, Unit: unit, Samples: samples, Note: note})
}

// span is one traced interval of a sampled op. ID is the value's identity
// (origin, per-origin sequence); spans of one op share it. Times are
// milliseconds since the pass started; simulated workloads carry virtual
// stamps as well.
type span struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	VStart  float64 `json:"vstart_ms,omitempty"`
	VEnd    float64 `json:"vend_ms,omitempty"`
}

// traceEvery is the span sampling stride: every 16th op of each origin.
const traceEvery = 16

func opID(origin, seq int) string { return fmt.Sprintf("o%d.%d", origin, seq) }

// spanMedians reports the median duration of each span name — the
// per-stage row of the latency table.
func spanMedians(spans []span, virtual bool) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		d := s.EndMS - s.StartMS
		if virtual {
			d = s.VEnd - s.VStart
		}
		by[s.Name] = append(by[s.Name], d)
	}
	out := map[string]float64{}
	for name, ds := range by {
		out[name] = median(ds)
	}
	return out
}

// orderDigest folds one node's delivery stream into a 64-bit FNV-1a hash;
// equal digests at every node is the cheap form of "one total order".
type orderDigest struct {
	h uint64
	n int
}

func newOrderDigest() orderDigest { return orderDigest{h: 14695981039346656037} }

func (d *orderDigest) add(from int, v string) {
	const prime = 1099511628211
	d.h = (d.h ^ uint64(from+1)) * prime
	for i := 0; i < len(v); i++ {
		d.h = (d.h ^ uint64(v[i])) * prime
	}
	d.h = (d.h ^ 0xff) * prime
	d.n++
}

func (d orderDigest) String() string { return fmt.Sprintf("%016x/%d", d.h, d.n) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histMeanMS is the exact mean of an obs histogram in milliseconds (the
// registry keeps exact count and sum; only its percentiles are bucketed,
// which is why the benchmark never reads them).
func histMeanMS(s *snapshot, name string) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Histograms[name].MeanNS) / 1e6
}

func counter(s *snapshot, name string) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Counters[name])
}

// registryLayers derives the per-layer metrics every stack-backed workload
// reads the same way from an obs snapshot; ops is the window's op count.
func registryLayers(snap *snapshot, ops float64) map[string]float64 {
	return map[string]float64{
		"wal_records_per_value": ratio(counter(snap, "wal.records"), ops),
		"wal_records_per_write": ratio(counter(snap, "wal.records"), counter(snap, "storage.writes")),
		"token_hops_per_value":  ratio(counter(snap, "vs.token_hops"), ops),
		"token_round_ms":        histMeanMS(snap, "vs.token_round"),
		"label_to_confirm_ms":   histMeanMS(snap, "vstoto.label_to_confirm"),
		"confirm_to_release_ms": histMeanMS(snap, "vstoto.confirm_to_release"),
		"summaries_per_view":    ratio(counter(snap, "vstoto.summaries"), counter(snap, "vs.installs")),
		"establishments":        counter(snap, "vstoto.establishments"),
		"view_installs":         counter(snap, "mb.installed"),
		"formation_ms":          histMeanMS(snap, "mb.formation_latency"),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
