package transducer

import (
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
)

// gossipTransducer is the one-hop gossip transducer of the dist zoo:
// broadcast the own id, remember every id heard, output (own id,
// heard id).
func gossipTransducer() *Transducer {
	return NewBuilder("gossip", fact.Schema{}).
		Msg("P", 1).
		Mem("Heard", 1).
		Snd("P", fo.MustQuery("sndP", []string{"x"}, fo.AtomF(SysId, "x"))).
		Ins("Heard", fo.MustQuery("insHeard", []string{"x"}, fo.AtomF("P", "x"))).
		Out(2, fo.MustQuery("out", []string{"x", "y"},
			fo.AndF(fo.AtomF(SysId, "x"), fo.AtomF("Heard", "y")))).
		MustBuild()
}

// TestFiringQuietStepAllocFree: once a gossip node has heard both of
// its neighbours, redelivering a known fact (or a heartbeat) is a
// quiet transition. Firing.Step must hand back the identical state
// pointer and replay the transition from its memo without allocating,
// and ProbeParts must agree with it for free.
func TestFiringQuietStepAllocFree(t *testing.T) {
	f := NewFiring(gossipTransducer())
	state := fact.FromFacts(ff(SysId, "n1"), ff(SysAll, "n1"), ff(SysAll, "n2"), ff(SysAll, "n3"))
	rcv := map[fact.Value]*fact.Instance{}
	for _, v := range []fact.Value{"n2", "n3"} {
		rcv[v] = fact.FromFacts(ff("P", v))
		eff, changed, err := f.Step(state, rcv[v])
		if err != nil {
			t.Fatal(err)
		}
		if !changed || eff.State == state {
			t.Fatalf("first delivery of P(%s) must change the state", v)
		}
		state = eff.State
	}

	for _, r := range []*fact.Instance{rcv["n2"], rcv["n3"], nil} {
		first, changed, err := f.Step(state, r)
		if err != nil {
			t.Fatal(err)
		}
		if changed || first.State != state {
			t.Fatalf("quiet step on %v: changed=%v, same state pointer=%v", r, changed, first.State == state)
		}
		if !first.Snd.HasFact(ff("P", "n1")) || first.Snd.Size() != 1 {
			t.Errorf("quiet step on %v: snd = %v", r, first.Snd)
		}
		if first.Out.Len() != 2 || !first.Out.Contains(fact.Tuple{"n1", "n3"}) {
			t.Errorf("quiet step on %v: out = %v", r, first.Out)
		}
		allocs := testing.AllocsPerRun(100, func() {
			eff, changed, err := f.Step(state, r)
			if err != nil || changed || eff.State != state || eff.Snd != first.Snd || eff.Out != first.Out {
				t.Fatalf("repeated quiet step on %v diverged: changed=%v err=%v", r, changed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("repeated quiet Step on %v: %v allocs, want 0", r, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			changed, snd, out, err := f.ProbeParts(state, r)
			if err != nil || changed || len(snd) != 1 || snd[0].R != first.Snd.Relation("P") || out != first.Out {
				t.Fatalf("probe of a quiet step on %v diverged: changed=%v err=%v", r, changed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("repeated quiet ProbeParts on %v: %v allocs, want 0", r, allocs)
		}
	}
}

// TestFiringProbeThenStep: a probe that finds a state-changing
// transition memoizes only that verdict (a repeated probe reads it
// back), and the Step that follows still executes exactly that
// transition — the effect Transducer.Step computes.
func TestFiringProbeThenStep(t *testing.T) {
	tr := gossipTransducer()
	f := NewFiring(tr)
	state := fact.FromFacts(ff(SysId, "n1"), ff(SysAll, "n1"), ff(SysAll, "n2"))
	rcv := fact.FromFacts(ff("P", "n2"))
	for i := 0; i < 2; i++ {
		changed, snd, out, err := f.ProbeParts(state, rcv)
		if err != nil || !changed || snd != nil || out != nil {
			t.Fatalf("probe %d: changed=%v snd=%v out=%v err=%v", i, changed, snd, out, err)
		}
	}
	eff, changed, err := f.Step(state, rcv)
	if err != nil || !changed {
		t.Fatalf("step: changed=%v err=%v", changed, err)
	}
	oracle, err := tr.Step(state, rcv)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.State.Equal(oracle.State) || !eff.Snd.Equal(oracle.Snd) || !eff.Out.Equal(oracle.Out) {
		t.Errorf("probed step = %v / %v / %v, oracle %v / %v / %v",
			eff.State, eff.Snd, eff.Out, oracle.State, oracle.Snd, oracle.Out)
	}
	// The memo belongs to the old state: redelivering on the new one
	// is quiet.
	if again, changed, err := f.Step(eff.State, rcv); err != nil || changed || again.State != eff.State {
		t.Errorf("redelivery after the step: changed=%v err=%v", changed, err)
	}
}
