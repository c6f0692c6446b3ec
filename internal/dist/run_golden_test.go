package dist

// Golden reference for the runtimes' merge and channel paths: for
// every zoo construction × runtime (sequential, Workers = 1 and 4) ×
// channel scenario, the full final configuration (dirtyFingerprint),
// the total number of sends ever held at severed links (Sim.Held) and
// a hash of the complete Trace event stream are pinned to a committed
// golden file. The untraced and traced runs must agree, so the file
// also pins that tracing never changes a trajectory.
//
// Regenerate (only when intentionally changing run semantics) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/dist -run TestRunGoldenBitIdentical

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"

	"declnet/internal/network"
)

const runGoldenPath = "testdata/run_golden.txt"

// traceHasher folds every trace event into an FNV-64a hash.
type traceHasher struct {
	h      io.Writer
	sum    func() uint64
	events int
}

func newTraceHasher() *traceHasher {
	h := fnv.New64a()
	return &traceHasher{h: h, sum: h.Sum64}
}

func (th *traceHasher) record(ev network.TraceEvent) {
	th.events++
	delivered := "-"
	if ev.Delivered != nil {
		delivered = ev.Delivered.String()
	}
	fmt.Fprintf(th.h, "%d|%s|%s|%d|%v|%v\n", ev.Step, ev.Node, delivered, ev.Sent, ev.NewOutput, ev.StateChanged)
}

func runGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, e := range diffZoo(t) {
		p := RoundRobinSplit(e.I, e.net)
		for _, workers := range []int{0, 1, 4} {
			for _, spec := range goldenChannels {
				prefix := fmt.Sprintf("%s/workers=%d/channel=%q: ", e.name, workers, spec)
				runOnce := func(trace func(network.TraceEvent)) (string, error) {
					opt := RunOptions{Seed: 7, Workers: workers, Channel: spec, Trace: trace}
					sim, err := NewSim(e.net, e.tr, p, opt)
					if err != nil {
						return "", fmt.Errorf("newsim error: %w", err)
					}
					var res network.RunResult
					if workers > 0 {
						res, err = sim.RunParallel(network.ParallelOptions{
							Seed: 7, Workers: workers, MaxSteps: opt.maxSteps()})
					} else {
						res, err = sim.Run(opt.scheduler(), opt.maxSteps())
					}
					if err != nil {
						return "", fmt.Errorf("error: %w", err)
					}
					return fmt.Sprintf("%s heldTotal=%d", dirtyFingerprint(sim, res), sim.Held), nil
				}
				plain, errPlain := runOnce(nil)
				th := newTraceHasher()
				traced, errTraced := runOnce(th.record)
				if errPlain != nil {
					lines = append(lines, prefix+errPlain.Error())
					if errTraced == nil || errTraced.Error() != errPlain.Error() {
						t.Errorf("%stracing changed the outcome: %v vs %v", prefix, errPlain, errTraced)
					}
					continue
				}
				if errTraced != nil || traced != plain {
					t.Errorf("%stracing changed the trajectory:\n  plain  %s\n  traced %s (%v)", prefix, plain, traced, errTraced)
				}
				lines = append(lines, fmt.Sprintf("%s%s trace=%016x/%d", prefix, plain, th.sum(), th.events))
			}
		}
	}
	return lines
}

// TestRunGoldenBitIdentical compares every run against the committed
// golden file.
func TestRunGoldenBitIdentical(t *testing.T) {
	got := runGoldenLines(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(runGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden lines to %s", len(got), runGoldenPath)
		return
	}
	raw, err := os.ReadFile(runGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to generate): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run diverged from golden:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
