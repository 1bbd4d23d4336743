// Command bench is the repository's one benchmark: five workloads over the
// public surface of the live cluster, the simulated stack and the model
// checker, each verified for correctness before any number is printed.
//
//	bench --workload W --seed S --seconds T --trace 0|1 [--out results.json]
//	bench --seed S --out results.json          (all five workloads)
//	bench --compare a.json b.json              (diff two result files against the bounds)
//
// The last line of standard output is the contract's JSON object; the lines
// before it print every metric by name, unit and sample count. See
// README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer lists;
// bench_test.go holds the two in agreement.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.25},
}

// perLayer lists every per-layer metric a traced run reports. A workload
// that does not exercise a layer reports 0 for it. cpu_ms_per_op, the whole
// process's cost, is here and not above because it cannot carry a bound:
// on live.paced, where the process idles eight ninths of the time, it moves
// by a quarter with what else the host is doing (README, "Measured spread").
var perLayer = []metricSpec{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver_self_frac", Unit: "ratio", Better: "lower"},
	{Name: "span_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "span_order_ms", Unit: "ms", Better: "lower"},
	{Name: "span_fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "span_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "transport_msgs_per_write", Unit: "count", Better: "higher"},
	{Name: "transport_bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "transport_write_ms", Unit: "ms", Better: "lower"},
	{Name: "codec_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "codec_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wal_records_per_value", Unit: "count", Better: "lower"},
	{Name: "wal_records_per_write", Unit: "count", Better: "higher"},
	{Name: "wal_bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "wal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "token_hops_per_value", Unit: "count", Better: "lower"},
	{Name: "token_round_ms", Unit: "ms", Better: "lower"},
	{Name: "msgs_per_value", Unit: "count", Better: "lower"},
	{Name: "label_to_confirm_ms", Unit: "ms", Better: "lower"},
	{Name: "confirm_to_release_ms", Unit: "ms", Better: "lower"},
	{Name: "summaries_per_view", Unit: "count", Better: "lower"},
	{Name: "establishments", Unit: "count", Better: "lower"},
	{Name: "view_installs", Unit: "count", Better: "lower"},
	{Name: "formation_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "history_slowdown", Unit: "ratio", Better: "higher"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "antichain_size_mean", Unit: "count", Better: "higher"},
	{Name: "check_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "busy_rejects", Unit: "count", Better: "lower"},
	{Name: "submit_call_us", Unit: "us", Better: "lower"},
	{Name: "explore_edges_per_state", Unit: "count", Better: "lower"},
	{Name: "explore_waves_per_call", Unit: "count", Better: "lower"},
}

var workloads = []workload{
	{name: "live.paced", setups: 5, epochs: 1, boot: bootLive(liveParams{paced: true}),
		why: "open loop 600 values/s on 3 live nodes: normal-load commit latency, bound by timers (delta, pi, tick), so CPU work predicts no change"},
	{name: "live.saturate", setups: 4, epochs: 4, boot: bootLive(liveParams{}),
		why: "closed loop 2 x 128 outstanding on fresh 3-node live clusters: transport, codec, WAL files and the engine lock under load"},
	{name: "sim.steady", setups: 101, epochs: 1, boot: bootSim(simParams{rate: 2000}),
		why: "deterministic n=5 stack + rsm at 2000 ops per virtual second: the protocol's CPU cost per op as history grows, no sockets or timers"},
	{name: "sim.churn", setups: 101, epochs: 1, boot: bootSim(simParams{rate: 500, churn: true}),
		why: "same stack under seeded 3|2 partitions and amnesia restarts: membership, state exchange and WAL replay, the other use of the same layers"},
	{name: "explore.bounded", setups: 101, epochs: 1, boot: bootExplore(exploreStates),
		why: "vstoto.Explore n=2, 2 bcasts, 1 view, truncated and pinned: model-checker speed, off the data path, so data-path work predicts no change"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome as written to -out. Metrics always holds
// the end-to-end metrics of the untraced pass; a traced result adds the
// per-layer ones (contractMetrics picks the set the contract's line prints).
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    []detail               `json:"detail"`
	Spans     []span                 `json:"spans,omitempty"`
	Registry  *snapshot              `json:"registry,omitempty"`
}

type resultFile struct {
	Env     map[string]any `json:"env"`
	Claim   any            `json:"claim"` // always null: this benchmark is the ruler, it claims no gain
	Results []*result      `json:"results"`
}

// mergePasses folds a workload's epochs into one pass: the median over
// epochs of each rate and each latency percentile (so one disturbed epoch
// cannot set the result), summed counts, mean layer metrics. Span ids gain an
// epoch prefix (e2.o0.16): each epoch numbers its ops from 0 again.
func mergePasses(ps []*pass) *pass {
	for _, p := range ps {
		p.lat = summarize(p.latencyMS)
	}
	if len(ps) == 1 {
		return ps[0]
	}
	out := &pass{layers: map[string]float64{}, registry: ps[len(ps)-1].registry, digest: ps[0].digest, describe: ps[0].describe}
	var thr, heap, cpu, p50, tail []float64
	for i, p := range ps {
		out.attempted += p.attempted
		out.failed += p.failed
		out.lat.N += p.lat.N
		for _, s := range p.spans {
			s.ID = fmt.Sprintf("e%d.%s", i, s.ID)
			out.spans = append(out.spans, s)
		}
		thr, heap, cpu = append(thr, p.throughput), append(heap, p.heapMB), append(cpu, p.cpuMSPerOp)
		p50, tail = append(p50, p.lat.P50), append(tail, p.lat.Tail)
		for k, v := range p.layers {
			out.layers[k] += v / float64(len(ps))
		}
	}
	out.throughput, out.heapMB, out.cpuMSPerOp = median(thr), median(heap), median(cpu)
	out.lat.P50, out.lat.Tail, out.lat.TailQ = median(p50), median(tail), ps[0].lat.TailQ
	return out
}

// runPass boots and measures the workload's epochs and returns the merged
// pass together with every boot's duration.
func runPass(w workload, e *env, traced bool, setups int) (*pass, []float64, error) {
	var passes []*pass
	var boots []float64
	for i := 0; i < w.epochs || len(boots) < setups; i++ {
		ee := *e
		ee.seed = e.seed + int64(i)*1000003
		ee.seconds = e.seconds / float64(w.epochs)
		ee.maxOps = e.maxOps / w.epochs
		t0 := time.Now()
		sys, err := w.boot(&ee, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, time.Since(t0).Seconds())
		if i >= w.epochs { // a set-up-only boot
			sys.close()
			continue
		}
		p, err := sys.measure(&ee)
		sys.close()
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
	}
	return mergePasses(passes), boots, nil
}

// runWorkload produces one result: an untraced pass for the end-to-end
// metrics and, with trace on, a second traced pass for the per-layer ones.
func runWorkload(w workload, e *env, trace bool) (*result, error) {
	// The benchmark-timed layer metrics run first, on a fresh heap, so they
	// are not coloured by what the workload left behind.
	var micro map[string]float64
	if trace {
		nsPerMsg, allocs, err := codecLayer()
		if err != nil {
			return nil, err
		}
		micro = map[string]float64{"codec_ns_per_msg": nsPerMsg, "codec_allocs_per_msg": allocs, "wal_append_ns": walLayer()}
	}
	p, boots, err := runPass(w, e, false, w.setups)
	if err != nil {
		return nil, err
	}
	lat := p.lat
	res := &result{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: trace,
		Correct: true, Attempted: p.attempted, Failed: p.failed, Digest: p.digest,
		Metrics: map[string]metricValue{},
	}
	if p.attempted < 1 || lat.N == 0 {
		return nil, errors.New("the window completed no operation")
	}
	p.describe(p)
	p.add("retained_heap_mb", p.heapMB, "MB", 0, "HeapAlloc after two forced GCs, system under test still referenced")
	p.add("failed_frac", ratio(float64(p.failed), float64(p.attempted)), "ratio", p.attempted, "never applied at the origin (sim) or not back within the drain (live)")
	p.add("setup_s", median(boots), "s", len(boots), "median boot → probe delivered at every node")
	p.add("cpu_ms_per_op", p.cpuMSPerOp, "ms", p.attempted, "process CPU time over the window ÷ ops")
	values := []float64{median(boots), p.throughput, lat.P50, lat.Tail, p.heapMB}
	for i, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[i], m.Unit}
	}
	p.add("latency_tail_is", lat.TailQ, "quantile", lat.N, "latency_tail_ms is the highest of p99/p95/p90/p75 with ≥ 10 samples beyond it")
	res.Detail = p.detail
	if !trace {
		return res, nil
	}
	tp, _, err := runPass(w, e, true, 0)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if tp.layers == nil {
		tp.layers = map[string]float64{}
	}
	tp.layers["trace_overhead_frac"] = 1 - tp.throughput/p.throughput
	tp.layers["cpu_ms_per_op"] = p.cpuMSPerOp // the untraced pass's: tracing is not part of the cost
	for k, v := range micro {
		tp.layers[k] = v
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{tp.layers[m.Name], m.Unit}
	}
	res.Detail = append(res.Detail, detail{Name: "traced_throughput_ops_s", Value: tp.throughput, Unit: "1/s", Samples: tp.attempted,
		Note: "the traced pass's own end-to-end rate; trace_overhead_frac = 1 − traced ÷ untraced"})
	res.Spans, res.Registry = tp.spans, tp.registry
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	return res, nil
}

// contractMetrics is the metric set of the contract's last line: every
// end-to-end metric of an untraced run, every per-layer metric of a traced one.
func (r *result) contractMetrics() map[string]metricValue {
	set := endToEnd
	if r.Trace {
		set = perLayer
	}
	out := map[string]metricValue{}
	for _, m := range set {
		out[m.Name] = r.Metrics[m.Name]
	}
	return out
}

func printResult(r *result) {
	fmt.Printf("== %s  seed=%d  seconds=%g  trace=%v  attempted=%d failed=%d  digest=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Digest)
	for _, d := range r.Detail {
		n := ""
		if d.Samples > 0 {
			n = fmt.Sprintf("n=%d", d.Samples)
		}
		fmt.Printf("  %-34s %16.4f %-8s %-10s %s\n", d.Name, d.Value, d.Unit, n, d.Note)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  metric %-27s %16.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if len(r.Spans) > 0 {
		sampled := map[string]bool{}
		for _, s := range r.Spans {
			sampled[s.ID] = true
		}
		fmt.Printf("  %d spans over %d sampled ops (every %dth op); written to -out\n", len(r.Spans), len(sampled), traceEvery)
	}
}

func envInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 8, "length of the measured window")
	trace := fs.Int("trace", 0, "1: add a traced pass and report the per-layer metrics instead")
	out := fs.String("out", "", "write results (metrics, detail, spans, registry snapshot) to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	scratch := fs.String("scratch", ".bench_build/tmp", "directory for the live workloads' WAL and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1 and -seconds is positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *wl == "" || *wl == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wl)
		return 2
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("run%d", os.Getpid()))
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, dir: dir}
	file := &resultFile{Env: envInfo()}
	for _, w := range selected {
		r, err := runWorkload(w, e, *trace == 1)
		if err != nil {
			// A failed check prints no metric rows: a wrong run has no numbers.
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", w.name, err)
			return 1
		}
		printResult(r)
		file.Results = append(file.Results, r)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	// The contract line: the last workload's result (the driver runs one).
	last := file.Results[len(file.Results)-1]
	line, _ := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.contractMetrics(),
	})
	fmt.Println(string(line))
	return 0
}
