package live_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/liverun"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// rejoinFixture writes a WAL file with three durable deliveries and
// returns its path plus the three delivery events (as a trace template).
func rejoinFixture(t *testing.T) (walPath string, deliveries []props.Event) {
	t.Helper()
	s := sim.New(1)
	w := recovery.New(storage.New(s, 0))
	view := types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(3)}
	vals := []struct {
		label types.Label
		from  types.ProcID
		seq   int
		val   types.Value
	}{
		{types.Label{ID: view.ID, Seqno: 1, Origin: 1}, 1, 1, "a"},
		{types.Label{ID: view.ID, Seqno: 2, Origin: 2}, 2, 1, "b"},
		{types.Label{ID: view.ID, Seqno: 3, Origin: 1}, 1, 2, "c"},
	}
	w.View(view, nil)
	for i, v := range vals {
		w.OrderAppend(i+1, v.label, v.val, nil)
		w.Deliver(i+1, v.label, v.from, v.seq, v.val, nil)
		deliveries = append(deliveries, props.Event{
			T: sim.Time(time.Duration(i+1) * time.Millisecond), Kind: props.TOBrcv,
			P: 0, From: v.from, Value: v.val, ValueSeq: v.seq,
		})
	}
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	walPath = filepath.Join(t.TempDir(), "node.wal")
	if err := os.WriteFile(walPath, w.Storage().Contents(), 0o644); err != nil {
		t.Fatal(err)
	}
	return walPath, deliveries
}

func writeTrace(t *testing.T, dir, name string, events []props.Event) string {
	t.Helper()
	lg := &props.Log{Events: events}
	var b strings.Builder
	if err := lg.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckRejoinWALAcceptsCleanRun(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	tr := writeTrace(t, dir, "r0.jsonl", ds)
	if err := liverun.CheckRejoinWAL(wal, []string{tr}); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
}

// A SIGKILL between the WAL write and the trace write leaves a delivery
// durable but untraced; the next incarnation's trace resumes after the
// gap. Both the boundary skip and a trailing WAL gap must be accepted.
func TestCheckRejoinWALAcceptsBoundaryGap(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	// Incarnation 0 traced only delivery 1; delivery 2 was durable but its
	// trace line was swallowed by the kill; incarnation 1 traced delivery 3.
	r0 := writeTrace(t, dir, "r0.jsonl", ds[:1])
	r1 := writeTrace(t, dir, "r1.jsonl", ds[2:])
	if err := liverun.CheckRejoinWAL(wal, []string{r0, r1}); err != nil {
		t.Fatalf("boundary gap rejected: %v", err)
	}
}

// Within one incarnation a gap is NOT allowed: a skipped delivery means
// the node's live stream diverged from its own durable order.
func TestCheckRejoinWALRejectsMidIncarnationSkip(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	tr := writeTrace(t, dir, "r0.jsonl", []props.Event{ds[0], ds[2]}) // skips ds[1]
	err := liverun.CheckRejoinWAL(wal, []string{tr})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("mid-incarnation skip accepted: %v", err)
	}
}

// A restarted node re-delivering something already delivered (amnesia
// recovery gone wrong) must be rejected at the boundary scan.
func TestCheckRejoinWALRejectsRedelivery(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	r0 := writeTrace(t, dir, "r0.jsonl", ds)
	r1 := writeTrace(t, dir, "r1.jsonl", ds[:1]) // delivers "a" again
	err := liverun.CheckRejoinWAL(wal, []string{r0, r1})
	if err == nil || !strings.Contains(err.Error(), "re-delivery or rewind") {
		t.Fatalf("re-delivery accepted: %v", err)
	}
}

// The first incarnation has no predecessor: its trace must start at WAL
// position 1, not scan forward.
func TestCheckRejoinWALFirstIncarnationAnchored(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	tr := writeTrace(t, dir, "r0.jsonl", ds[1:]) // starts at position 2
	if err := liverun.CheckRejoinWAL(wal, []string{tr}); err == nil {
		t.Fatal("first-incarnation gap accepted")
	}
}

// A value the WAL never recorded at all must fail, whichever incarnation
// it appears in.
func TestCheckRejoinWALRejectsPhantomDelivery(t *testing.T) {
	wal, ds := rejoinFixture(t)
	dir := filepath.Dir(wal)
	phantom := ds[0]
	phantom.Value = "never-ordered"
	phantom.ValueSeq = 9
	r0 := writeTrace(t, dir, "r0.jsonl", ds[:1])
	r1 := writeTrace(t, dir, "r1.jsonl", []props.Event{phantom})
	if err := liverun.CheckRejoinWAL(wal, []string{r0, r1}); err == nil {
		t.Fatal("phantom delivery accepted")
	}
}
