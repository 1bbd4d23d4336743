package chaos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestArtifactRoundTrip(t *testing.T) {
	for _, orig := range []Config{
		{Campaign: CrashRestart, Seed: 11, N: 4, Window: 1200 * time.Millisecond},
		// Compaction armed: a replay that dropped CheckpointBytes would run
		// a different program, one that never checkpoints.
		{Campaign: Amnesia, Seed: 1, N: 4, Window: 1200 * time.Millisecond, CheckpointBytes: 1024},
	} {
		r := Run(orig)
		data, err := NewArtifact(r).Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		cfg := back.Config()
		if cfg.Campaign != orig.Campaign || cfg.Seed != orig.Seed || cfg.N != orig.N ||
			cfg.Delta != time.Millisecond || cfg.Window != orig.Window ||
			cfg.CheckpointBytes != orig.CheckpointBytes {
			t.Fatalf("decoded config = %+v, want %+v", cfg, orig)
		}
		if cfg.RecoveryBound != r.Bound {
			t.Errorf("artifact lost the effective bound: %v vs %v", cfg.RecoveryBound, r.Bound)
		}
		if len(cfg.Schedule) != len(r.Schedule) {
			t.Fatalf("schedule length %d, want %d", len(cfg.Schedule), len(r.Schedule))
		}
		for i := range cfg.Schedule {
			if cfg.Schedule[i] != r.Schedule[i] {
				t.Fatalf("event %d: %v vs %v", i, cfg.Schedule[i], r.Schedule[i])
			}
		}

		// Byte for byte: the replay re-encodes to the same artifact and
		// every instrument, WAL checkpoints included, reads the same.
		replay := Run(cfg)
		again, err := NewArtifact(replay).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: replayed artifact differs from the original", orig.Campaign)
		}
		want, err := json.Marshal(r.Obs.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(replay.Obs.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replay metrics differ:\noriginal %s\nreplay   %s", orig.Campaign, want, got)
		}
		if ck := checkpoints(r); ck != checkpoints(replay) || (orig.CheckpointBytes > 0) != (ck > 0) {
			t.Errorf("%s: checkpoints original %d, replay %d", orig.Campaign, ck, checkpoints(replay))
		}
	}
}

// checkpoints sums the WAL checkpoints every node of a run wrote.
func checkpoints(r *Result) int {
	n := 0
	for _, p := range r.Cluster.Procs.Members() {
		n += r.Cluster.Node(p).Checkpoints()
	}
	return n
}

// TestSameSeedSameArtifactBytes is the CLI determinism criterion: the same
// seed and campaign produce byte-identical artifacts across independent
// runs.
func TestSameSeedSameArtifactBytes(t *testing.T) {
	for _, ct := range Campaigns {
		cfg := Config{Campaign: ct, Seed: 5, N: 4, Window: 1200 * time.Millisecond}
		a, err := NewArtifact(Run(cfg)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewArtifact(Run(cfg)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: artifacts differ across identical runs", ct)
		}
	}
}

// TestReplayedRunMatchesOriginal: a run reconstructed from an artifact
// reproduces the original's observable outcome exactly, including when the
// artifact's schedule is used verbatim rather than regenerated.
func TestReplayedRunMatchesOriginal(t *testing.T) {
	orig := Run(Config{Campaign: LeaderCrash, Seed: 2, N: 4, Window: 1200 * time.Millisecond})
	data, err := NewArtifact(orig).Encode()
	if err != nil {
		t.Fatal(err)
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	replay := Run(art.Config())
	if replay.Msgs != orig.Msgs || replay.Deliveries != orig.Deliveries ||
		replay.Net != orig.Net || replay.Recovery != orig.Recovery {
		t.Fatalf("replay diverged:\noriginal %+v\nreplay   %+v", orig, replay)
	}
	if replay.Failed() != orig.Failed() {
		t.Fatalf("verdicts differ: %v vs %v", replay.Violation, orig.Violation)
	}
}

func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "}{",
		"wrong version": `{"version":99,"campaign":"mixed","seed":1,"n":4,"delta_ns":1000000,"window_ns":1000000000,"recovery_bound_ns":1,"events":[]}`,
		"bad n":         `{"version":1,"campaign":"mixed","seed":1,"n":1,"delta_ns":1000000,"window_ns":1000000000,"recovery_bound_ns":1,"events":[]}`,
		"bad delta":     `{"version":1,"campaign":"mixed","seed":1,"n":4,"delta_ns":0,"window_ns":1000000000,"recovery_bound_ns":1,"events":[]}`,
		"bad event":     `{"version":1,"campaign":"mixed","seed":1,"n":4,"delta_ns":1000000,"window_ns":1000000000,"recovery_bound_ns":1,"events":[{"t_ns":1,"status":"great","proc":0}]}`,
	}
	for name, data := range cases {
		if _, err := DecodeArtifact([]byte(data)); err == nil {
			t.Errorf("%s: accepted %s", name, data)
		}
	}
}

func TestViolationString(t *testing.T) {
	var v *Violation
	if v.String() != "ok" {
		t.Errorf("nil violation = %q", v.String())
	}
	v = &Violation{Check: "conformance", Detail: "boom"}
	if !strings.Contains(v.String(), "conformance") || !strings.Contains(v.String(), "boom") {
		t.Errorf("violation = %q", v.String())
	}
}

// TestFailingArtifactCarriesDiagnostics: a failing run's artifact dumps the
// per-layer metric snapshot and the trace ring buffer (the causal tail of
// protocol incidents), while a passing run's artifact carries neither. The
// diagnostics must not perturb replay: Config() ignores them.
func TestFailingArtifactCarriesDiagnostics(t *testing.T) {
	cfg := Config{Campaign: RollingPartition, Seed: 3, N: 4, Window: 1200 * time.Millisecond}
	pass := NewArtifact(Run(cfg))
	if pass.Check != "" {
		t.Fatalf("expected a passing run, got violation %s: %s", pass.Check, pass.Detail)
	}
	if pass.Metrics != nil || pass.Trace != nil {
		t.Fatal("passing artifact carries diagnostics")
	}

	cfg.ExtraCheck = func(r *Result) *Violation {
		return &Violation{Check: "injected", Detail: "forced failure for diagnostics test"}
	}
	fail := NewArtifact(Run(cfg))
	if fail.Check != "injected" {
		t.Fatalf("violation = %q, want injected", fail.Check)
	}
	if fail.Metrics == nil || len(fail.Metrics.Counters) == 0 {
		t.Fatal("failing artifact has no metric snapshot")
	}
	for _, name := range []string{"net.sent", "to.deliveries", "vs.installs", "wal.records"} {
		if fail.Metrics.Counters[name] <= 0 {
			t.Errorf("metrics missing layer counter %s: %v", name, fail.Metrics.Counters[name])
		}
	}
	if len(fail.Trace) == 0 {
		t.Fatal("failing artifact has no trace dump")
	}
	sawFault, sawView := false, false
	for _, e := range fail.Trace {
		if e.Layer == "fault" {
			sawFault = true
		}
		if e.Layer == "vs" && e.Kind == "newview" {
			sawView = true
		}
	}
	if !sawFault || !sawView {
		t.Fatalf("trace lacks fault/view incidents (fault=%v view=%v, %d events)",
			sawFault, sawView, len(fail.Trace))
	}
	// Diagnostics survive the JSON round trip but never reach the replay
	// config.
	data, err := fail.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics == nil || len(back.Trace) != len(fail.Trace) {
		t.Fatal("diagnostics lost in round trip")
	}
	if back.Metrics.Counters["net.sent"] != fail.Metrics.Counters["net.sent"] {
		t.Fatal("metric snapshot corrupted in round trip")
	}
}
