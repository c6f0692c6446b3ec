package dist

// Golden bit-identity harness for the compiled query-plan layer: the
// quiescent output, step count and send count of every zoo
// construction — sequential and Workers = 1, 2, 4, 8, under the
// default channel and every fault scenario — are pinned to a committed
// golden file generated BEFORE the evaluators were lowered onto
// internal/plan. Any semantic drift in the lowering (join order is
// free, results are not) shows up as a golden diff.
//
// Regenerate (only when intentionally changing run semantics) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/dist -run TestPlanGolden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"declnet/internal/network"
)

const goldenPath = "testdata/plan_golden.txt"

// goldenChannels covers the default channel ("") plus every scenario
// family.
var goldenChannels = []string{"", "lossy:30", "dup:30", "partition:12", "crash:1@10"}

func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, e := range diffZoo(t) {
		p := RoundRobinSplit(e.I, e.net)
		for _, workers := range []int{0, 1, 2, 4, 8} {
			for _, spec := range goldenChannels {
				opt := RunOptions{Seed: 7, Workers: workers, Channel: spec}
				sim, err := NewSim(e.net, e.tr, p, opt)
				if err != nil {
					// Some scenarios are invalid on some networks (e.g. a
					// crash schedule on a one-node net); the rejection is
					// pinned behaviour too.
					lines = append(lines, fmt.Sprintf("%s/workers=%d/channel=%q: newsim error: %v", e.name, workers, spec, err))
					continue
				}
				var res network.RunResult
				if workers > 0 {
					res, err = sim.RunParallel(network.ParallelOptions{
						Seed: 7, Workers: workers, MaxSteps: opt.maxSteps()})
				} else {
					res, err = sim.Run(opt.scheduler(), opt.maxSteps())
				}
				cell := ""
				if err != nil {
					// Errors (e.g. step-budget exhaustion under a fault
					// scenario) are part of the pinned behaviour too.
					cell = "error: " + err.Error()
				} else {
					cell = fmt.Sprintf("steps=%d sends=%d out=%s", res.Steps, res.Sends, res.Output)
				}
				lines = append(lines, fmt.Sprintf("%s/workers=%d/channel=%q: %s", e.name, workers, spec, cell))
			}
		}
	}
	return lines
}

// TestPlanGoldenBitIdentical compares every run against the committed
// pre-refactor golden file.
func TestPlanGoldenBitIdentical(t *testing.T) {
	got := goldenLines(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden lines to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to generate): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run diverged from pre-plan-layer golden:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
