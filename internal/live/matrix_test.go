// The black-box tests of package live_test exercise internal/liverun,
// the process-level harness that drives this daemon, next to the
// daemon's own tests. A test import does not enter the daemon's link
// closure (TestDaemonLinksNoHarness).
package live_test

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/liverun"
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

// runOne runs kind as a one-scenario matrix on a 4-process cluster of the
// real daemon at 60 values/s with WAL compaction armed, and fails the test
// unless every check passes.
func runOne(t *testing.T, kind chaos.CampaignType, so liverun.ScenarioOptions) *liverun.ScenarioResult {
	t.Helper()
	so.Dir = t.TempDir()
	so.PgcsdPath = buildPgcsd(t)
	so.N, so.Rate, so.CheckpointBytes, so.Logf = 4, 60, 32<<10, t.Logf
	res, err := liverun.RunMatrix(liverun.MatrixOptions{ScenarioOptions: so, Kinds: []chaos.CampaignType{kind}})
	if err != nil {
		t.Fatalf("scenario failed: %v", err)
	}
	return res.Scenarios[0]
}

// TestRunScenarioSmoke runs one real chaos scenario end to end: a
// 4-process cluster under load, link flapping from the generated
// schedule, WAL compaction armed, all checks on. This is the PR-gate
// slice of what CI's nightly matrix runs at 10 nodes across all kinds.
func TestRunScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real cluster for several seconds; skipped in -short mode")
	}
	res := runOne(t, chaos.FlappingLinks, liverun.ScenarioOptions{
		Seed:     1,
		BasePort: 23810,
		Window:   3 * time.Second,
		Settle:   2 * time.Second,
	})
	if !res.Passed() {
		t.Fatalf("checks failed: check=%q rejoin=%q recovery=%q", res.CheckErr, res.RejoinErr, res.RecoveryErr)
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
	res := runOne(t, chaos.KillWaves, liverun.ScenarioOptions{
		Seed:     2,
		BasePort: 23830,
		Window:   4 * time.Second,
		Settle:   3 * time.Second,
	})
	if res.Restarts == 0 {
		t.Fatal("kill waves produced no restarts")
	}
}

func TestRunLoadRejectsUnknownShapes(t *testing.T) {
	if _, err := liverun.RunLoad(liverun.LoadOptions{Profile: "bogus"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := liverun.RunLoad(liverun.LoadOptions{Arrival: "sawtooth"}); err == nil {
		t.Error("unknown arrival accepted")
	}
}
