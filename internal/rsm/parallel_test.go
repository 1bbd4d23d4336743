package rsm

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// replicaDigest hashes p's replica contents plus applied count into a
// comparable fingerprint.
func replicaDigest(m *Memory, p types.ProcID) string {
	rep := m.Replica(p)
	keys := make([]string, 0, len(rep))
	for k := range rep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "applied=%d\n", m.AppliedCount(p))
	for _, k := range keys {
		fmt.Fprintf(h, "%q=%q\n", k, rep[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runWorkload drives a seeded multi-key workload (writes at every proc,
// atomic reads sprinkled in) against a fresh cluster with the given apply
// worker count, returning the per-replica digests and the client-ack order.
func runWorkload(t *testing.T, workers int) (digests []string, acks []string) {
	t.Helper()
	const n = 4
	c := stack.NewCluster(stack.Options{Seed: 99, N: n, Delta: time.Millisecond})
	m := New(c)
	m.SetWorkers(workers)
	for i := 0; i < 48; i++ {
		i := i
		p := types.ProcID(i % n)
		c.Sim.After(time.Duration(5+i)*time.Millisecond, func() {
			key := fmt.Sprintf("k%d", i%7)
			if i%6 == 5 {
				m.ReadAtomic(p, key, func(v string) {
					acks = append(acks, fmt.Sprintf("r%d@%v=%q", i, p, v))
				})
			} else {
				m.Write(p, key, fmt.Sprintf("v%d", i), func() {
					acks = append(acks, fmt.Sprintf("w%d@%v", i, p))
				})
			}
		})
	}
	if err := m.WaitSettle(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Procs.Members() {
		digests = append(digests, replicaDigest(m, p))
	}
	return digests, acks
}

// TestParallelApplyDeterminism is the CI-gated digest check: the same
// seeded workload applied at workers=1 (the serial reference), workers=2,
// and workers=NumCPU yields byte-identical replica state and identical
// client-ack order.
func TestParallelApplyDeterminism(t *testing.T) {
	wantDigests, wantAcks := runWorkload(t, 1)
	if len(wantAcks) == 0 {
		t.Fatal("workload produced no acks; test is vacuous")
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		digests, acks := runWorkload(t, w)
		if fmt.Sprint(digests) != fmt.Sprint(wantDigests) {
			t.Errorf("workers=%d replica digests diverged from serial:\n  %v\nvs\n  %v", w, digests, wantDigests)
		}
		if fmt.Sprint(acks) != fmt.Sprint(wantAcks) {
			t.Errorf("workers=%d ack order diverged from serial:\n  %v\nvs\n  %v", w, acks, wantAcks)
		}
	}
}

// backlogCluster broadcasts the given encoded values, settles, and returns
// the cluster: attaching a Memory afterwards sees the whole stream as one
// batch on the first Pump — the way tests force wide antichains.
func backlogCluster(t *testing.T, vals []types.Value) *stack.Cluster {
	t.Helper()
	c := stack.NewCluster(stack.Options{Seed: 7, N: 3, Delta: time.Millisecond})
	for i, v := range vals {
		v := v
		c.Sim.After(time.Duration(5+i)*time.Millisecond, func() { c.Bcast(0, v) })
	}
	if err := c.Sim.Run(c.Sim.Now() + sim.Time(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConflictRelationTable: asymmetric user relations are symmetrized —
// a conflict declared in either argument order forces serial application.
// The workload is same-key writes under an appending ApplyFunc, where a
// missed conflict would visibly lose an append; every relation variant
// must reproduce the exact serial result at every worker count.
func TestConflictRelationTable(t *testing.T) {
	const nOps = 8
	var vals []types.Value
	want := "" // serial result of appending applies
	for i := 0; i < nOps; i++ {
		vals = append(vals, Op{Kind: "w", Key: "k", Val: fmt.Sprintf("+%d", i), Nonce: i + 1}.Encode())
		want += fmt.Sprintf("+%d", i)
	}
	relations := []struct {
		name string
		f    ConflictFunc
	}{
		{"default", nil}, // DefaultConflict
		{"always", AlwaysConflict},
		// Asymmetric: conflicts only when the first argument's nonce is
		// smaller. The planner queries both orders, so this must behave
		// like its symmetric closure (= same-key conflict).
		{"asym-forward", func(a, b Op) bool { return a.Key == b.Key && a.Nonce < b.Nonce }},
		// Asymmetric the other way: stream order from one origin has
		// increasing nonces, so the i<j query alone would never fire.
		{"asym-reverse", func(a, b Op) bool { return a.Key == b.Key && a.Nonce > b.Nonce }},
		// Reflexive-only-plus: conflicts also on a==b; reflexive pairs are
		// never queried, so this is just the same-key relation.
		{"reflexive", func(a, b Op) bool { return a.Key == b.Key || a == b }},
	}
	for _, rel := range relations {
		for _, workers := range []int{1, 4} {
			c := backlogCluster(t, vals)
			m := New(c)
			m.SetConflict(rel.f)
			m.SetWorkers(workers)
			m.SetApply(func(op Op, cur string) string { return cur + op.Val })
			if err := m.Pump(); err != nil {
				t.Fatalf("%s/workers=%d: %v", rel.name, workers, err)
			}
			for _, p := range c.Procs.Members() {
				if got := m.Read(p, "k"); got != want {
					t.Errorf("%s/workers=%d: replica %v has %q, want %q", rel.name, workers, p, got, want)
				}
			}
		}
	}
}

// TestEmptyAndAllConflictingBatches: pumping with no deliveries is a
// no-op, and an all-conflicting batch degenerates to exact serial
// behavior (single-op segments).
func TestEmptyAndAllConflictingBatches(t *testing.T) {
	c := stack.NewCluster(stack.Options{Seed: 3, N: 3, Delta: time.Millisecond})
	m := New(c)
	m.SetWorkers(4)
	if err := m.Pump(); err != nil {
		t.Fatalf("empty pump: %v", err)
	}
	if got := m.AppliedCount(0); got != 0 {
		t.Fatalf("empty pump applied %d ops", got)
	}

	var vals []types.Value
	for i := 0; i < 6; i++ {
		vals = append(vals, Op{Kind: "w", Key: "k", Val: fmt.Sprintf("v%d", i), Nonce: i + 1}.Encode())
	}
	c2 := backlogCluster(t, vals)
	m2 := New(c2)
	m2.SetConflict(AlwaysConflict)
	m2.SetWorkers(4)
	if err := m2.Pump(); err != nil {
		t.Fatal(err)
	}
	for _, p := range c2.Procs.Members() {
		if got := m2.Read(p, "k"); got != "v5" {
			t.Errorf("replica %v has %q, want last write \"v5\"", p, got)
		}
		if got := m2.AppliedCount(p); got != 6 {
			t.Errorf("replica %v applied %d ops, want 6", p, got)
		}
	}
}

// TestMalformedOpsHaltNotPanic sweeps malformed encodings (the
// FuzzDecodeOp seed shapes: untagged strings in the shape of the retired
// "kind|nonce|klen:keyval" format, and damaged wire encodings) through
// Memory apply: every replica must apply exactly the good prefix, halt with
// a sticky error, and never panic or diverge.
func TestMalformedOpsHaltNotPanic(t *testing.T) {
	good := Op{Kind: "w", Key: "k", Val: "ok", Nonce: 1}.Encode()
	binary := string(Op{Kind: "w", Key: "key", Val: "val", Nonce: 2}.Encode())
	malformed := []string{
		"",                    // untagged: empty
		"w",                   // untagged: kind letter only
		"w|x|1:k",             // untagged: retired format, bad nonce
		"w|1|99:k",            // untagged: retired format, key length past end
		"q|1|1:kv",            // untagged: retired format, unknown kind
		"w|1|1:kv",            // untagged: retired format, once well-formed
		binary[:1],            // binary: tag only
		binary[:4],            // binary: truncated mid-varint
		binary + "x",          // binary: trailing bytes
		"\x01\xff" + "rest",   // binary: unknown kind byte
		"\x01\x00",            // binary: custom-kind marker, kind string missing
		"\x01w\x02\x03key123", // binary: key length runs past end
	}
	for _, bad := range malformed {
		bad := bad
		t.Run(fmt.Sprintf("%q", bad), func(t *testing.T) {
			c := backlogCluster(t, []types.Value{good, types.Value(bad), good})
			m := New(c)
			m.SetWorkers(4)
			err := m.Pump()
			if err == nil {
				t.Fatalf("Pump succeeded through malformed op %q", bad)
			}
			ref := m.AppliedCount(0)
			if ref != 1 {
				t.Errorf("applied %d ops, want exactly the good prefix (1)", ref)
			}
			for _, p := range c.Procs.Members() {
				if m.Err(p) == nil {
					t.Errorf("replica %v has no sticky error", p)
				}
				if got := m.AppliedCount(p); got != ref {
					t.Errorf("replica %v applied %d, replica 0 applied %d (diverged)", p, got, ref)
				}
				if got := m.Read(p, "k"); got != "ok" {
					t.Errorf("replica %v has k=%q, want \"ok\"", p, got)
				}
			}
			if err := m.CheckCoherence(); err != nil {
				t.Errorf("replicas incoherent after halt: %v", err)
			}
		})
	}
}

// TestPermutedCommutingBatchesPassCheckers: an adversarial executor that
// installs each antichain in reversed order is still sequentially
// consistent — permuting commuting operations is exactly what the conflict
// relation licenses — and both trace checkers accept the execution.
func TestPermutedCommutingBatchesPassCheckers(t *testing.T) {
	var vals []types.Value
	for i := 0; i < 24; i++ {
		// Distinct keys: the whole backlog is one wide commuting antichain.
		vals = append(vals, Op{Kind: "w", Key: fmt.Sprintf("k%d", i), Val: fmt.Sprintf("v%d", i), Nonce: i + 1}.Encode())
	}
	c := backlogCluster(t, vals)
	m := New(c)
	m.permuteSegments = true
	h := NewHistoryChecker(m)
	for _, p := range c.Procs.Members() {
		for i := 0; i < 24; i += 5 {
			if got, want := h.ReadLogged(p, fmt.Sprintf("k%d", i)), fmt.Sprintf("v%d", i); got != want {
				t.Errorf("replica %v reads %q, want %q", p, got, want)
			}
		}
	}
	if err := h.Check(); err != nil {
		t.Errorf("permuted commuting batches failed the history checker: %v", err)
	}

	// The atomic checker over a live run: distinct keys per writer so
	// batches stay commuting, with permuted installs throughout.
	c2 := stack.NewCluster(stack.Options{Seed: 31, N: 3, Delta: time.Millisecond})
	m2 := New(c2)
	m2.permuteSegments = true
	ac := NewAtomicChecker(m2)
	for i := 0; i < 12; i++ {
		i := i
		p := types.ProcID(i % 3)
		c2.Sim.After(time.Duration(5+i)*time.Millisecond, func() {
			if i%4 == 3 {
				ac.Read(p, fmt.Sprintf("k%d", i-1))
			} else {
				ac.Write(p, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
			}
		})
	}
	if err := m2.WaitSettle(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if ac.Completed() == 0 {
		t.Fatal("no atomic ops completed; test is vacuous")
	}
	if err := ac.Check(); err != nil {
		t.Errorf("permuted commuting batches failed the atomic checker: %v", err)
	}
}

// TestBrokenPlannerCaughtByCheckers is the regression safety net: a
// deliberately broken planner (forceCommute pretends everything commutes)
// combined with the permuting executor reorders *conflicting* ops, and the
// history checker must reject the execution.
func TestBrokenPlannerCaughtByCheckers(t *testing.T) {
	mk := func() (*Memory, *stack.Cluster) {
		vals := []types.Value{
			Op{Kind: "w", Key: "k", Val: "first", Nonce: 1}.Encode(),
			Op{Kind: "w", Key: "k", Val: "second", Nonce: 2}.Encode(),
		}
		c := backlogCluster(t, vals)
		return New(c), c
	}

	// Sanity: the honest planner on the same stream passes.
	m, _ := mk()
	m.permuteSegments = true // legal permutation only (conflicts respected)
	h := NewHistoryChecker(m)
	if got := h.ReadLogged(0, "k"); got != "second" {
		t.Fatalf("honest planner left k=%q, want \"second\"", got)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("honest planner rejected: %v", err)
	}

	// Broken planner: same-key writes land in one "commuting" segment and
	// the permuting executor installs them in reverse.
	mb, _ := mk()
	mb.forceCommute = true
	mb.permuteSegments = true
	hb := NewHistoryChecker(mb)
	if got := hb.ReadLogged(0, "k"); got != "first" {
		// If the reorder didn't happen the regression test is vacuous.
		t.Fatalf("broken planner left k=%q; expected the reorder to leave \"first\"", got)
	}
	if err := hb.Check(); err == nil {
		t.Fatal("history checker accepted a reorder of conflicting ops")
	} else if !strings.Contains(err.Error(), "replay says") {
		t.Fatalf("unexpected checker error: %v", err)
	}
}

// TestApplyObservability: the rsm obs instruments count batches, ops and
// antichain sizes when the cluster's registry is enabled.
func TestApplyObservability(t *testing.T) {
	reg := obs.New()
	c := stack.NewCluster(stack.Options{Seed: 13, N: 3, Delta: time.Millisecond, Obs: reg})
	m := New(c)
	m.SetWorkers(2)
	for i := 0; i < 10; i++ {
		i := i
		c.Sim.After(time.Duration(5+i)*time.Millisecond, func() {
			m.Write(types.ProcID(i%3), fmt.Sprintf("k%d", i), "v", nil)
		})
	}
	if err := m.WaitSettle(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ops := reg.Counter("rsm.apply_ops").Value()
	batches := reg.Counter("rsm.apply_batches").Value()
	if ops != int64(c.TotalDeliveries()) {
		t.Errorf("rsm.apply_ops = %d, want %d (total deliveries)", ops, c.TotalDeliveries())
	}
	if batches == 0 || batches > ops {
		t.Errorf("rsm.apply_batches = %d (ops %d); want within (0, ops]", batches, ops)
	}
	// One histogram sample per planned span, at least one span per batch.
	if n := reg.Histogram("rsm.antichain_size").Count(); n < batches {
		t.Errorf("antichain histogram has %d samples, fewer than %d batches", n, batches)
	}
	if n := reg.Histogram("rsm.apply_batch_wall_ns").Count(); n != batches {
		t.Errorf("apply latency histogram has %d samples, want %d (one per batch)", n, batches)
	}
}
