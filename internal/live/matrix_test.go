package live

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
)

// buildPgcsd compiles the real daemon into a temp dir; the matrix runs
// actual processes, not in-process engines.
func buildPgcsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pgcsd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/pgcsd").CombinedOutput()
	if err != nil {
		t.Fatalf("build pgcsd: %v\n%s", err, out)
	}
	return bin
}

// TestRunScenarioSmoke runs one real chaos scenario end to end: a
// 4-process cluster under load, link flapping from the generated
// schedule, WAL compaction armed, all checks on. This is the PR-gate
// slice of what CI's nightly matrix runs at 10 nodes across all kinds.
func TestRunScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real cluster for several seconds; skipped in -short mode")
	}
	bin := buildPgcsd(t)
	res, err := RunScenario(chaos.FlappingLinks, ScenarioOptions{
		Dir:             filepath.Join(t.TempDir(), "flapping-links"),
		PgcsdPath:       bin,
		N:               4,
		Seed:            1,
		BasePort:        23810,
		Rate:            60,
		Window:          3 * time.Second,
		Settle:          2 * time.Second,
		CheckpointBytes: 32 << 10,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("scenario failed: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("checks failed: check=%q rejoin=%q", res.CheckErr, res.RejoinErr)
	}
	if res.Entry.Deliveries == 0 || res.OrderLen == 0 {
		t.Fatalf("vacuous run: deliveries=%d order=%d", res.Entry.Deliveries, res.OrderLen)
	}
	if res.Injected["lpause"] == 0 {
		t.Fatalf("no link faults injected: %v", res.Injected)
	}
}

// TestRunScenarioRestartKind exercises the kill/restart injector path
// end to end (SIGKILL mid-load, WAL replay on respawn, rejoin-safety
// check across incarnation traces).
func TestRunScenarioRestartKind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real cluster for several seconds; skipped in -short mode")
	}
	bin := buildPgcsd(t)
	res, err := RunScenario(chaos.KillWaves, ScenarioOptions{
		Dir:             filepath.Join(t.TempDir(), "kill-waves"),
		PgcsdPath:       bin,
		N:               4,
		Seed:            2,
		BasePort:        23830,
		Rate:            60,
		Window:          4 * time.Second,
		Settle:          3 * time.Second,
		CheckpointBytes: 32 << 10,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("scenario failed: %v", err)
	}
	if res.Restarts == 0 {
		t.Fatal("kill waves produced no restarts")
	}
}

func TestRunLoadRejectsUnknownShapes(t *testing.T) {
	if _, err := RunLoad(LoadOptions{Profile: "bogus"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := RunLoad(LoadOptions{Arrival: "sawtooth"}); err == nil {
		t.Error("unknown arrival accepted")
	}
}
