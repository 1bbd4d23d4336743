package chaos

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/failures"
)

// The golden files were recorded at the commit before internal/live's
// private action vocabulary was deleted. process_level.golden holds, per
// (kind, n, seed, window ms), the digest of what the live generator then
// emitted; oracle_level.golden holds, per (campaign, n, seed), the digest
// of the JSON-encoded schedule at δ = 1ms, window 4s.

// faultIntervals renders what a process-level schedule does to each node —
// its ordered fault intervals by class (stop, kill, pause, cycle), in ms —
// plus the loss epochs: the form the pre-move generator was digested in.
func faultIntervals(s failures.Schedule, n int) string {
	type interval struct {
		class      string
		start, end int64
		open       bool
	}
	per := make([][]*interval, n)
	begin := func(node int, class string, at int64) {
		per[node] = append(per[node], &interval{class: class, start: at, open: true})
	}
	finish := func(node int, at int64, classes ...string) {
		for _, iv := range per[node] {
			for _, c := range classes {
				if iv.open && iv.class == c {
					iv.end, iv.open = at, false
					return
				}
			}
		}
		per[node] = append(per[node], &interval{class: "orphan-heal", start: at, end: at})
	}
	deaf := make([]int, n) // inbound pairs currently bad
	for i := 0; i < len(s); i++ {
		e := s[i]
		at := e.Time.Duration().Milliseconds()
		switch {
		case e.Channel && e.Status == failures.Bad:
			if deaf[e.Pair.To]++; deaf[e.Pair.To] == n-1 {
				begin(int(e.Pair.To), "pause", at)
			}
		case e.Channel:
			if deaf[e.Pair.To]--; deaf[e.Pair.To] == 0 {
				finish(int(e.Pair.To), at, "pause")
			}
		case e.Status == failures.Bad:
			begin(int(e.Proc), "stop", at)
		case e.Status == failures.Amnesia:
			if next := (failures.Event{Time: e.Time, Proc: e.Proc, Status: failures.Good}); i+1 < len(s) && s[i+1] == next {
				per[e.Proc] = append(per[e.Proc], &interval{class: "cycle", start: at, end: at})
				i++
			} else {
				begin(int(e.Proc), "kill", at)
			}
		default:
			finish(int(e.Proc), at, "stop", "kill")
		}
	}
	var b strings.Builder
	for p, ivs := range per {
		fmt.Fprintf(&b, "p%d:", p)
		for _, iv := range ivs {
			if iv.open {
				fmt.Fprintf(&b, " %s[%d,)", iv.class, iv.start)
			} else {
				fmt.Fprintf(&b, " %s[%d,%d]", iv.class, iv.start, iv.end)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("loss:")
	for _, ep := range LossEpochs(s, n) {
		fmt.Fprintf(&b, " [%d,%d]", ep.Start.Duration().Milliseconds(), ep.End.Duration().Milliseconds())
	}
	b.WriteByte('\n')
	return b.String()
}

// goldenRows reads a golden file: whitespace-separated fields, the digest
// last.
func goldenRows(t *testing.T, name string) [][]string {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		rows = append(rows, strings.Fields(sc.Text()))
	}
	return rows
}

// TestProcessLevelLoweringMatchesGolden: the thirteen families that moved
// here from internal/live strike every node over exactly the intervals, in
// exactly the order, they did as live actions — rng draw order,
// ms-truncated instants and tie order all survived the move.
func TestProcessLevelLoweringMatchesGolden(t *testing.T) {
	rows := goldenRows(t, "process_level.golden")
	if want := 13 * 3 * 10 * 2; len(rows) != want {
		t.Fatalf("golden file has %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		var n int
		var seed, windowMS int64
		if _, err := fmt.Sscan(strings.Join(r[1:4], " "), &n, &seed, &windowMS); err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		ct := CampaignType(r[0])
		if !ct.ProcessLevel() {
			t.Fatalf("row %v: not a process-level campaign", r)
		}
		s, err := Generate(ct, seed, Spec{N: n, Window: time.Duration(windowMS) * time.Millisecond})
		if err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		text := faultIntervals(s, n)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != r[4] {
			t.Errorf("%s n=%d seed=%d window=%dms: digest %s, golden %s; schedule now does\n%s",
				ct, n, seed, windowMS, got, r[4], text)
		}
	}
}

// TestOracleLevelSchedulesMatchGolden: the nine oracle-level campaigns
// generate byte-identical schedules to the recorded ones.
func TestOracleLevelSchedulesMatchGolden(t *testing.T) {
	rows := goldenRows(t, "oracle_level.golden")
	if want := 9 * 2 * 20; len(rows) != want {
		t.Fatalf("golden file has %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		var n int
		var seed int64
		if _, err := fmt.Sscan(r[1]+" "+r[2], &n, &seed); err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		ct := CampaignType(r[0])
		if ct.ProcessLevel() {
			t.Fatalf("row %v: not an oracle-level campaign", r)
		}
		s, err := Generate(ct, seed, Spec{N: n, Delta: time.Millisecond, Window: 4 * time.Second})
		if err != nil {
			t.Fatalf("row %v: %v", r, err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != r[3] {
			t.Errorf("%s n=%d seed=%d: digest %s, golden %s", ct, n, seed, got, r[3])
		}
	}
}
