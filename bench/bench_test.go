package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The tests run every workload at about 1/50 of its benchmark size with
// fixed op counts (so sizes, and for the simulated workloads every count
// and virtual time, are exact), and hold BENCHMARK.json and the program's
// own tables together. `go -C bench test` takes under ten seconds.

// smallOps is each workload's test size; sim.churn needs ten fault cycles
// (2.5 virtual seconds at 500 ops/s) to reach its first amnesia restart.
var smallOps = map[string]int{
	"live.paced": 120, "live.saturate": 1200, "sim.steady": 800, "sim.churn": 1300, "explore.bounded": 2,
}

func smallRun(t *testing.T, w workload, seed int64, trace bool) *result {
	t.Helper()
	return sizedRun(t, w, seed, smallOps[w.name], trace)
}

func sizedRun(t *testing.T, w workload, seed int64, ops int, trace bool) *result {
	t.Helper()
	w.setups = 1
	if w.name == "explore.bounded" {
		w.boot = bootExplore(exploreTestStates)
	}
	e := &env{seed: seed, seconds: 1, maxOps: ops, dir: t.TempDir()}
	r, err := runWorkload(w, e, trace)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram: BENCHMARK.json names exactly the workloads and
// metrics the program has, with the same units, directions and bounds.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", spec.Paths, spec.Command)
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload small, untraced
// and traced, and checks the contract's two metric sets are complete.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain := smallRun(t, w, 7, false)
			for _, m := range endToEnd {
				v, ok := plain.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s: %+v (present=%v); must be reported and never 0", m.Name, v, ok)
				}
			}
			if got := plain.contractMetrics(); len(plain.Metrics) != len(endToEnd) || !reflect.DeepEqual(got, plain.Metrics) {
				t.Errorf("untraced run reports %d metrics (%d on the contract line), want %d", len(plain.Metrics), len(got), len(endToEnd))
			}
			traced := smallRun(t, w, 7, true)
			for _, m := range perLayer {
				if v, ok := traced.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s: %+v (present=%v)", m.Name, v, ok)
				}
			}
			// A traced result keeps the untraced pass's end-to-end metrics (so
			// -compare works on traced files); the contract line drops them.
			for _, m := range endToEnd {
				if v, ok := traced.Metrics[m.Name]; !ok || !(v.Value > 0) {
					t.Errorf("traced result lost end-to-end %s: %+v", m.Name, v)
				}
			}
			line := traced.contractMetrics()
			if len(line) != len(perLayer) || len(traced.Metrics) != len(perLayer)+len(endToEnd) {
				t.Errorf("traced run: %d metrics on the contract line, %d in the result; want %d and %d", len(line), len(traced.Metrics), len(perLayer), len(perLayer)+len(endToEnd))
			}
			for _, m := range endToEnd {
				if _, ok := line[m.Name]; ok {
					t.Errorf("contract line of a traced run carries end-to-end %s", m.Name)
				}
			}
			if w.name != "explore.bounded" && len(traced.Spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
			for _, s := range traced.Spans {
				if s.EndMS < s.StartMS || s.ID == "" || s.Name == "" {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestSimDeterminism: the program under test receives only seeded inputs,
// so two same-seed simulated runs agree bit for bit on the delivery-order
// digest, every count and every virtual-time metric; another seed gives
// another order.
func TestSimDeterminism(t *testing.T) {
	for _, w := range workloads {
		if w.name != "sim.steady" && w.name != "sim.churn" {
			continue
		}
		a, b, c := smallRun(t, w, 11, false), smallRun(t, w, 11, false), smallRun(t, w, 12, false)
		if a.Digest != b.Digest || a.Attempted != b.Attempted {
			t.Errorf("%s: same seed, digests %s vs %s, attempted %d vs %d", w.name, a.Digest, b.Digest, a.Attempted, b.Attempted)
		}
		for _, name := range []string{"latency_p50_ms", "latency_tail_ms"} { // virtual time on sim workloads
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: same seed, %s %v vs %v", w.name, name, a.Metrics[name], b.Metrics[name])
			}
		}
		virt := func(r *result) []detail {
			var out []detail
			for _, d := range r.Detail {
				if len(d.Name) > 5 && d.Name[:5] == "virt_" {
					d.Note = ""
					out = append(out, d)
				}
			}
			return out
		}
		if !reflect.DeepEqual(virt(a), virt(b)) || len(virt(a)) == 0 {
			t.Errorf("%s: same seed, virtual-time detail differs:\n%+v\n%+v", w.name, virt(a), virt(b))
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 11 and 12 gave the same order digest %s", w.name, a.Digest)
		}
	}
}

// TestChurnWindowEndsInsideOutage: the generator's stop instant (1 160 ops
// is 2.32 virtual seconds) falls inside the first amnesia outage, fault at
// 2.27–2.29 s and restart at 2.37–2.39 s. The window must run on to the
// cycle's end so the restart's recovery is measured, not reported as a
// repair that never recovered.
func TestChurnWindowEndsInsideOutage(t *testing.T) {
	for _, w := range workloads {
		if w.name != "sim.churn" {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			r := sizedRun(t, w, seed, 1160, seed == 1)
			if r.Attempted < 1160 {
				t.Errorf("seed %d: attempted %d", seed, r.Attempted)
			}
		}
	}
}

// TestCompare: the comparison marks a pairing outside its bound, honours
// each metric's direction, and refuses a rise in failures.
func TestCompare(t *testing.T) {
	mk := func(thr, lat float64, failed int) *resultFile {
		return &resultFile{Results: []*result{{Workload: "sim.steady", Attempted: 100, Failed: failed, Metrics: map[string]metricValue{
			"throughput_ops_s": {thr, "1/s"}, "latency_p50_ms": {lat, "ms"},
		}}}}
	}
	base := mk(1000, 10, 0)
	for _, tc := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"same", mk(1000, 10, 0), 0},
		{"better both ways", mk(2000, 5, 0), 0},
		{"within bound", mk(950, 10.5, 0), 0},
		{"throughput down 20%", mk(800, 10, 0), 1},
		{"latency up 20%", mk(1000, 12, 0), 1},
		{"a failure appeared", mk(1000, 10, 1), 1},
		{"nothing in common", &resultFile{Results: []*result{{Workload: "other"}}}, 2},
	} {
		if got := compareResults(base, tc.b); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 0, 1001)
	for i := 0; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 {
		t.Errorf("p50 %v tail p%v %v", s.P50, s.TailQ*100, s.Tail)
	}
	for n, q := range map[int]float64{30: 0.75, 40: 0.75, 100: 0.90, 200: 0.95, 1000: 0.99} {
		if got := tailQuantile(n); got != q {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, q)
		}
	}
}
