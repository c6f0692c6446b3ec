package dist

// Fault-scenario property harness: the PR 3 differential tests
// extended to the channel-model layer. Three properties anchor it:
//
//  1. the "fair" spec resolved through the scenario registry is
//     bit-identical to the default FairLossless binding for every zoo
//     construction, sequentially and at every worker count;
//  2. monotone programs preserve their quiescent output under loss
//     and duplication (set-semantics idempotence + retransmission);
//  3. every scenario is deterministic per (seed, scenario), and in
//     the parallel runtime the worker count never changes the
//     trajectory — fault scenarios inherit the differential
//     harness's replayability guarantees wholesale.

import (
	"testing"

	"declnet/internal/network"
)

// scenarioSpecs is the fault-scenario matrix the tests sweep. The
// crash schedule hits node 1 early so the crash actually lands before
// most constructions quiesce.
var scenarioSpecs = []string{"lossy:30", "dup:30", "partition:12", "crash:1@10"}

// TestScenarioFairBitIdentical: Channel "fair" (the spec parsed and
// bound through the scenario registry) reproduces the trajectory of
// Channel "" (the default FairLossless binding) bit for bit — same
// output, steps and sends — for all 14 zoo constructions, sequential
// and Workers = 1, 2, 4, 8.
func TestScenarioFairBitIdentical(t *testing.T) {
	for _, e := range diffZoo(t) {
		t.Run(e.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 4, 8} {
				runOnce := func(spec string) network.RunResult {
					opt := RunOptions{Seed: 7, Workers: workers, Channel: spec}
					sim, err := NewSim(e.net, e.tr, RoundRobinSplit(e.I, e.net), opt)
					if err != nil {
						t.Fatal(err)
					}
					var res network.RunResult
					if workers > 0 {
						res, err = sim.RunParallel(network.ParallelOptions{
							Seed: 7, Workers: workers, MaxSteps: opt.maxSteps()})
					} else {
						res, err = sim.Run(opt.scheduler(), opt.maxSteps())
					}
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ref := runOnce("")
				got := runOnce("fair")
				if !got.Output.Equal(ref.Output) {
					t.Errorf("workers=%d: fair-channel output %s != default-binding %s",
						workers, got.Output, ref.Output)
				}
				if got.Steps != ref.Steps || got.Sends != ref.Sends {
					t.Errorf("workers=%d: fair-channel trajectory diverged: steps %d/%d sends %d/%d",
						workers, got.Steps, ref.Steps, got.Sends, ref.Sends)
				}
			}
		})
	}
}

// TestScenarioMonotonePreserved: for every monotone consistent zoo
// construction, the lossy and duplicating channels preserve the
// quiescent output — the channel-robustness half of the CALM claim,
// at the construction-zoo scale.
func TestScenarioMonotonePreserved(t *testing.T) {
	for _, e := range diffZoo(t) {
		if !e.tr.Monotone() || !e.consistent {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			p := RoundRobinSplit(e.I, e.net)
			want, err := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []string{"lossy:30", "dup:30"} {
				for _, workers := range []int{0, 2} {
					out, err := RunToQuiescence(e.net, e.tr, p,
						RunOptions{Seed: 7, Workers: workers, Channel: spec})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", spec, workers, err)
					}
					if !out.Equal(want) {
						t.Errorf("%s workers=%d: output %s != fair output %s",
							spec, workers, out, want)
					}
				}
			}
		})
	}
}

// TestScenarioDeterministic: each scenario is a pure function of
// (seed, scenario) — re-running is bit-identical — and in parallel
// mode the worker count never changes the trajectory, extending the
// PR 3 Workers-independence guarantee to every fault model.
func TestScenarioDeterministic(t *testing.T) {
	for _, e := range diffZoo(t) {
		t.Run(e.name, func(t *testing.T) {
			p := RoundRobinSplit(e.I, e.net)
			for _, spec := range scenarioSpecs {
				// Sequential: identical reruns.
				a, errA := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 3, Channel: spec})
				b, errB := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 3, Channel: spec})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: rerun changed the verdict: %v vs %v", spec, errA, errB)
				}
				if errA == nil && !a.Equal(b) {
					t.Errorf("%s: sequential rerun diverged: %s vs %s", spec, a, b)
				}
				// Parallel: Workers=1 vs Workers=4 bit-identical.
				w1, err1 := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 3, Workers: 1, Channel: spec})
				w4, err4 := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 3, Workers: 4, Channel: spec})
				if (err1 == nil) != (err4 == nil) {
					t.Fatalf("%s: worker count changed the verdict: %v vs %v", spec, err1, err4)
				}
				if err1 == nil && !w1.Equal(w4) {
					t.Errorf("%s: workers=4 output %s != workers=1 %s", spec, w4, w1)
				}
			}
		})
	}
}

// TestScenarioSweepAcrossChannels: SweepOptions.Channels fans the
// consistency sweep across channel models the way it fans across
// partitions — a monotone consistent construction stays consistent
// across the whole scenario matrix.
func TestScenarioSweepAcrossChannels(t *testing.T) {
	rep, err := CheckConsistency(network.Line(3), TransitiveClosure(),
		diffZoo(t)[0].I, SweepOptions{Seeds: 2, Channels: []string{"", "lossy:20", "dup:20", "partition:12"}})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := 5 * 2 * 4 // partitions × seeds × channels
	if rep.Runs != wantRuns {
		t.Errorf("sweep ran %d runs, want %d (channels must multiply the matrix)", rep.Runs, wantRuns)
	}
	if !rep.Consistent() {
		t.Errorf("transitive closure inconsistent across channel models: %d distinct outputs", len(rep.Outputs))
	}
}
