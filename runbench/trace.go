package main

import (
	"time"

	"declnet/run"
)

// tracer collects the per-layer split of traced runs from outside the
// program: it wraps the scheduler (sequential runtime) and listens on
// Sim.Trace. It never changes which transition runs, so a traced run
// follows the untraced trajectory exactly.
//
// In the sequential loop every transition runs between Scheduler.Next
// returning and the Trace callback, and a quiescence check runs, if at
// all, between a Trace callback and the next call of Next (or the
// return of Sim.Run). A gap in which Sim.ProbeCount advanced therefore
// held a check.
type tracer struct {
	sim   *run.Sim
	inner run.Scheduler

	lastEnd    time.Time // end of the previous transition, or the run's start
	nextRet    time.Time // when the current Next returned
	lastProbes int64

	checks       int
	probe, sched time.Duration
	deliver      []time.Duration
	heartbeat    []time.Duration
	bufferedPeak int

	transitions, changed, sent, newOutput int
}

// attach starts tracing a fresh Sim, keeping the totals so far. It
// returns the scheduler to run with: the wrapper around inner, or nil
// when inner is nil (the parallel runtime).
func (t *tracer) attach(sim *run.Sim, inner run.Scheduler) run.Scheduler {
	t.sim, t.inner = sim, inner
	t.nextRet, t.lastProbes = time.Time{}, sim.ProbeCount()
	sim.Trace = t.event
	if inner == nil {
		return nil
	}
	return t
}

// start marks the call that starts the run.
func (t *tracer) start() { t.lastEnd = time.Now() }

// finish marks the return of the run; the final quiescence check sits
// in the gap before it.
func (t *tracer) finish() {
	if t.inner != nil {
		t.gap(time.Now())
	}
}

func (t *tracer) gap(now time.Time) {
	if p := t.sim.ProbeCount(); p != t.lastProbes {
		t.lastProbes = p
		t.checks++
		t.probe += now.Sub(t.lastEnd)
	}
}

// Next implements run.Scheduler by delegating to the wrapped scheduler.
func (t *tracer) Next(s *run.Sim) run.Event {
	t.gap(time.Now())
	if b := s.BufferedFacts(); b > t.bufferedPeak {
		t.bufferedPeak = b
	}
	begin := time.Now()
	ev := t.inner.Next(s)
	t.nextRet = time.Now()
	t.sched += t.nextRet.Sub(begin)
	return ev
}

func (t *tracer) event(ev run.TraceEvent) {
	now := time.Now()
	t.transitions++
	t.sent += ev.Sent
	t.newOutput += len(ev.NewOutput)
	if ev.StateChanged {
		t.changed++
	}
	if t.nextRet.IsZero() {
		return // parallel runtime: events arrive at the merge barrier
	}
	if ev.Delivered == nil {
		t.heartbeat = append(t.heartbeat, now.Sub(t.nextRet))
	} else {
		t.deliver = append(t.deliver, now.Sub(t.nextRet))
	}
	t.lastEnd = now
}

// transitionTime is the summed span of all transitions.
func (t *tracer) transitionTime() time.Duration {
	var d time.Duration
	for _, s := range t.deliver {
		d += s
	}
	for _, s := range t.heartbeat {
		d += s
	}
	return d
}
