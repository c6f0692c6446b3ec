package network

import (
	"fmt"
	"testing"

	"declnet/internal/channel"
)

// checkQueuedIndex verifies the coalescing index: at every node, each
// known-set entry's queued count equals the number of copies of its
// fact in the buffer, and every buffered fact is known.
func checkQueuedIndex(t testing.TB, s *Sim, when string) {
	t.Helper()
	for _, n := range s.order {
		want := map[string]int{}
		for _, f := range n.buf {
			want[f.KeyIn(n.dict)]++
		}
		for key, e := range n.known {
			if e.queued != want[key] {
				t.Fatalf("%s: node %s fact %s queued %d, buffered %d", when, n.v, e.f, e.queued, want[key])
			}
			if s.CoalesceDuplicates && e.queued > 1 {
				t.Fatalf("%s: node %s fact %s buffered %d times under coalescing", when, n.v, e.f, e.queued)
			}
			delete(want, key)
		}
		if len(want) > 0 {
			t.Fatalf("%s: node %s buffers %d facts outside its known set", when, n.v, len(want))
		}
	}
}

// TestParallelQueuedIndexMatchesBuffers checks the per-key queued
// counts against the buffers after every transition of fault-scenario
// runs — drops, duplicate deliveries, crashes that empty a buffer, and
// partitions whose held messages Clone flushes — in the sequential
// runtime and in parallel rounds, with and without coalescing, and on
// clones taken along the way.
func TestParallelQueuedIndexMatchesBuffers(t *testing.T) {
	models := []struct {
		name   string
		model  func() channel.Model
		faults func(s *Sim) int
	}{
		{"lossy", func() channel.Model { return channel.LossyFair(5, 30) }, func(s *Sim) int { return s.Drops }},
		{"dup", func() channel.Model { return channel.Duplicating(5, 30) }, func(s *Sim) int { return s.Duplicates }},
		{"crash", func() channel.Model {
			return channel.CrashRestart([]channel.CrashEvent{{Step: 12, Node: 1}, {Step: 30, Node: 2}, {Step: 45, Node: 1}})
		}, func(s *Sim) int { return s.Crashes }},
		{"partition", func() channel.Model { return channel.Partition(10, 4) }, func(s *Sim) int { return s.Held }},
	}
	for _, m := range models {
		for _, workers := range []int{0, 1, 2} {
			for _, coalesce := range []bool{true, false} {
				label := fmt.Sprintf("%s/workers=%d/coalesce=%v", m.name, workers, coalesce)
				s := parallelTestSim(t, Ring(4), 6, coalesce)
				s.SetChannel(m.model())
				events := 0
				s.Trace = func(ev TraceEvent) {
					when := fmt.Sprintf("%s step %d", label, ev.Step)
					checkQueuedIndex(t, s, when)
					if events++; events%25 == 0 {
						checkQueuedIndex(t, s.Clone(), when+" clone")
					}
				}
				var err error
				if workers > 0 {
					_, err = s.RunParallel(ParallelOptions{Seed: 3, Workers: workers, MaxSteps: 20000})
				} else {
					_, err = s.Run(NewRandomScheduler(3), 20000)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if m.faults(s) == 0 {
					t.Errorf("%s: the scenario injected no fault", label)
				}
				checkQueuedIndex(t, s, label+" end")
				checkQueuedIndex(t, s.Clone(), label+" end clone")
			}
		}
	}
}
