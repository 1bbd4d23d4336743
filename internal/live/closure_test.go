package live

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLinksNoHarness: the shipped daemon and this package link
// none of the evaluation harness — the experiment tables, the comparison
// baselines, the chaos campaigns or the live scenario runner. rsm is
// deliberately not on the list: the replicated memory is the paper's
// application and may come to sit behind pgcsd.
func TestDaemonLinksNoHarness(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "repro/cmd/pgcsd", "repro/internal/live").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch strings.TrimPrefix(pkg, "repro/internal/") {
		case "experiments", "baseline", "primary", "loadbalance", "chaos", "liverun":
			t.Errorf("the daemon links %s", pkg)
		}
	}
}
