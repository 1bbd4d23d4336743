package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E17 measures the commutativity-aware parallel apply (internal/rsm +
// internal/sweep.ApplyOrdered): with the default conflict relation a
// write-heavy burst over many distinct keys plans into wide antichains,
// and the per-op apply work fans across worker goroutines while replica
// state and client-ack order stay byte-identical to serial apply.
//
// Two phases:
//
//   - Correctness: one seeded live workload (writes + atomic reads,
//     acked) re-run at workers = 1, 2, 4 on identical clusters. Replica
//     digests and the ack sequence must match the serial run exactly —
//     the digest-equality discipline of BENCH_sweep.json applied to the
//     rsm layer.
//
//   - Throughput: one delivered burst of writes over distinct keys,
//     applied offline by fresh memories at each worker count under a
//     deliberately CPU-heavy ApplyFunc. The wall-clock speedup at 4
//     workers is the gated claim (>=2x vs workers=1), enforced only on
//     >=4-core runners — on smaller hosts the gate SKIPs with an
//     attributable note (the bench job asserts core count separately).
func E17(seed int64) *Table {
	t := &Table{
		ID:    "E17",
		Title: "commutativity-aware parallel apply: throughput vs workers",
		Claim: "antichain-parallel apply yields >=2x apply throughput at 4 workers on a write-heavy multi-key workload, with byte-identical replica state and ack order at every worker count",
		Columns: []string{"phase", "workers", "ops", "wall elapsed", "ops/sec",
			"state digest"},
	}

	const n = 3

	// --- Phase A: live correctness at every worker count. ---------------
	type outcome struct {
		digest string // replica states + applied counts, all procs
		acks   string // client-ack sequence digest
		ops    int
	}
	live := func(workers int) outcome {
		c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: time.Millisecond})
		m := rsm.New(c)
		m.SetWorkers(workers)
		ah := sha256.New()
		for i := 0; i < 96; i++ {
			i := i
			p := types.ProcID(i % n)
			c.Sim.After(time.Duration(5+i)*time.Millisecond, func() {
				key := fmt.Sprintf("k%d", i%17)
				if i%8 == 7 {
					m.ReadAtomic(p, key, func(v string) { fmt.Fprintf(ah, "r%d=%q\n", i, v) })
				} else {
					m.Write(p, key, fmt.Sprintf("v%d", i), func() { fmt.Fprintf(ah, "w%d\n", i) })
				}
			})
		}
		must(m.WaitSettle(sim.Time(5 * time.Second)))
		must(m.CheckCoherence())
		ops := 0
		for _, p := range c.Procs.Members() {
			ops += m.AppliedCount(p)
		}
		return outcome{
			digest: replicaDigest(m, c.Procs),
			acks:   hex.EncodeToString(ah.Sum(nil)),
			ops:    ops,
		}
	}
	serial := live(1)
	for _, w := range []int{1, 2, 4} {
		o := serial
		if w != 1 {
			o = live(w)
		}
		t.Rows = append(t.Rows, []string{
			"correctness", fmt.Sprintf("%d", w), fmt.Sprintf("%d", o.ops),
			"-", "-", o.digest[:16],
		})
		if o.digest != serial.digest {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"E17: workers=%d replica state diverged from serial (digest %s vs %s)",
				w, o.digest[:16], serial.digest[:16]))
		}
		if o.acks != serial.acks {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"E17: workers=%d client-ack order diverged from serial", w))
		}
	}

	// --- Phase B: offline apply throughput on one delivered burst. ------
	const (
		burst = 1536
		keys  = 512
	)
	c := stack.NewCluster(stack.Options{Seed: seed + 1, N: n, Delta: time.Millisecond})
	must(c.Sim.RunFor(30 * time.Millisecond))
	for i := 0; i < burst; i++ {
		op := rsm.Op{Kind: "w", Key: fmt.Sprintf("k%d", i%keys), Val: fmt.Sprintf("v%d", i), Nonce: i + 1}
		c.Bcast(types.ProcID(i%n), op.Encode())
	}
	if !runUntil(c.Sim, 50*time.Millisecond, sim.Time(600*time.Second), func() bool { return c.TotalDeliveries() >= n*burst }) {
		panic("E17: burst never fully delivered")
	}

	// heavyApply stands in for a real state machine's per-op work: ~2k
	// hash rounds, pure in (op, cur), so the only variable across worker
	// counts is scheduling.
	heavyApply := func(op rsm.Op, cur string) string {
		sum := sha256.Sum256([]byte(op.Key + op.Val + cur))
		for i := 0; i < 32; i++ {
			sum = sha256.Sum256(sum[:])
		}
		return hex.EncodeToString(sum[:8])
	}

	apply := func(workers int) (wall time.Duration, digest string) {
		m := rsm.New(c)
		m.SetWorkers(workers)
		m.SetApply(heavyApply)
		start := time.Now()
		must(m.Pump())
		return time.Since(start), replicaDigest(m, c.Procs)
	}

	walls := map[int]time.Duration{}
	var serialDigest string
	for _, w := range []int{1, 2, 4} {
		wall, digest := apply(w)
		walls[w] = wall
		if w == 1 {
			serialDigest = digest
		} else if digest != serialDigest {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"E17: workers=%d offline apply diverged from serial (digest %s vs %s)",
				w, digest[:16], serialDigest[:16]))
		}
		t.Rows = append(t.Rows, []string{
			"throughput", fmt.Sprintf("%d", w), fmt.Sprintf("%d", n*burst),
			wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(n*burst)/wall.Seconds()),
			digest[:16],
		})
	}

	speedup := walls[1].Seconds() / walls[4].Seconds()
	cores := runtime.NumCPU()
	if cores >= 4 {
		if speedup < 2 {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"E17: 4-worker apply only %.2fx serial on %d cores (floor 2x)", speedup, cores))
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"4-worker apply is %.2fx serial on %d cores (floor 2x enforced)", speedup, cores))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SKIP: speedup floor not enforced — nproc=%d (< 4 cores); measured %.2fx at 4 workers",
			cores, speedup))
	}
	t.Notes = append(t.Notes,
		"identical replica digests and ack order at every worker count: parallelism changed only wall-clock time")
	return t
}

// replicaDigest fingerprints every replica's applied count and key/value
// state, in processor then key order.
func replicaDigest(m *rsm.Memory, procs types.ProcSet) string {
	h := sha256.New()
	for _, p := range procs.Members() {
		rep := m.Replica(p)
		keys := make([]string, 0, len(rep))
		for k := range rep {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "p%v applied=%d\n", p, m.AppliedCount(p))
		for _, k := range keys {
			fmt.Fprintf(h, "%q=%q\n", k, rep[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
