package recovery_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/stack"
	"repro/internal/types"
)

// TestWALByteBudget is the WAL's executable byte budget on the shape of
// the sim.steady benchmark: n = 5, the batched data path, jittered wire
// hops, λ = δ/4, 4 000 values of 50 bytes submitted round-robin at 2 000
// per virtual second. A value's bytes are logged once per node (its
// OrderAppend) and once more at its origin (its Bcast); the Deliver and
// Label records carry none. So each node's image holds at most 100 bytes
// per value, and the cluster still writes exactly 12 records per value: an
// OrderAppend and a Deliver at each of the 5 nodes, a Bcast and a Label at
// the origin — plus each node's initial view and establishment. On failure
// the test prints what each record kind costs.
func TestWALByteBudget(t *testing.T) {
	const (
		n      = 5
		values = 4000
		budget = 100 // image bytes per value per node
	)
	c := stack.NewCluster(stack.Options{
		Seed: 1, N: n, Delta: time.Millisecond, Jitter: true, Wire: true, StorageLatency: time.Millisecond / 4,
	})
	for i := 0; i < values; i++ {
		v := types.Value(fmt.Sprintf("%-44s#%05d", "w|key|value", i))
		p := types.ProcID(i % n)
		c.Sim.After(10*time.Millisecond+time.Duration(i)*500*time.Microsecond, func() { c.Bcast(p, v) })
	}
	for deadline := c.Sim.Now().Add(10 * time.Second); ; {
		done := true
		for _, p := range c.Procs.Members() {
			done = done && c.Node(p).DeliveredCount() == values
		}
		if done {
			break
		}
		if c.Sim.Now() > deadline {
			t.Fatalf("%d values not delivered everywhere by %v", values, c.Sim.Now())
		}
		if err := c.Sim.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sim.RunFor(10 * time.Millisecond); err != nil { // the last records' writes
		t.Fatal(err)
	}

	stats := make(map[string]recovery.RecordStat)
	bytes := 0
	for _, p := range c.Procs.Members() {
		img := c.Node(p).WAL().Storage().Contents()
		if snap := recovery.Replay(img); snap.Truncated != "" || len(snap.Delivered) != values {
			t.Fatalf("%v's image: truncated %q, %d deliveries", p, snap.Truncated, len(snap.Delivered))
		}
		recovery.RecordStats(img, stats)
		bytes += len(img)
	}
	records := 0
	kinds := make([]string, 0, len(stats))
	for k, st := range stats {
		records += st.Count
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	var b strings.Builder
	for _, k := range kinds {
		st := stats[k]
		fmt.Fprintf(&b, "  %-22s %6d records  %8d B  %6.1f B/value/node", k, st.Count, st.Bytes, float64(st.Bytes)/values/n)
		if st.Count > 0 {
			fmt.Fprintf(&b, "  %5.1f B/record", float64(st.Bytes)/float64(st.Count))
		}
		b.WriteByte('\n')
	}
	perValue := float64(bytes) / values / n
	t.Logf("%.1f B per value per node, %.3f records per value:\n%s", perValue, float64(records)/values, b.String())
	if perValue > budget {
		t.Errorf("WAL image holds %.1f B per value per node, budget %d B; by record kind:\n%s", perValue, budget, b.String())
	}
	if want := 12*values + 2*n; records != want {
		t.Errorf("the cluster wrote %d records for %d values, want %d (12 per value, 2 per node at start); by record kind:\n%s",
			records, values, want, b.String())
	}
}
