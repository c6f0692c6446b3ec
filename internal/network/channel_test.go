package network

import (
	"testing"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// chanTestSetup places the floodEcho gossip transducer ("every node
// eventually knows and outputs every S-element") on a line network
// with the input spread round-robin — a monotone workload whose
// quiescent output is the same under every fair channel model.
func chanTestSetup(t *testing.T, nodes int) (*Network, *transducer.Transducer, map[fact.Value]*fact.Instance, *fact.Relation) {
	t.Helper()
	tr := floodEcho()
	net := Line(nodes)
	facts := []fact.Fact{
		fact.NewFact("S", "x1"), fact.NewFact("S", "x2"),
		fact.NewFact("S", "x3"), fact.NewFact("S", "x4"),
	}
	part := map[fact.Value]*fact.Instance{}
	for i, f := range facts {
		v := net.Nodes()[i%nodes]
		if part[v] == nil {
			part[v] = fact.NewInstance()
		}
		part[v].AddFact(f)
	}
	want := fact.NewRelation(1)
	for _, f := range facts {
		want.Add(f.Args)
	}
	return net, tr, part, want
}

func runWithModel(t *testing.T, m channel.Model, seed int64, parallel int) (*Sim, RunResult) {
	t.Helper()
	net, tr, part, _ := chanTestSetup(t, 4)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	sim.CoalesceDuplicates = true
	sim.SetChannel(m)
	var res RunResult
	if parallel > 0 {
		res, err = sim.RunParallel(ParallelOptions{Seed: seed, Workers: parallel, MaxSteps: 100000})
	} else {
		res, err = sim.Run(NewRandomScheduler(seed), 100000)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

// TestChannelFairBitIdentical: binding a fresh FairLossless model
// explicitly reproduces the default binding's trajectory — output,
// step, heartbeat, delivery and send counters — bit for bit,
// sequentially and in parallel rounds.
func TestChannelFairBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		ref, refRes := runWithModel(t, nil, 11, workers)
		got, gotRes := runWithModel(t, channel.FairLossless(), 11, workers)
		if !gotRes.Output.Equal(refRes.Output) {
			t.Errorf("workers=%d: output %s != default-binding %s", workers, gotRes.Output, refRes.Output)
		}
		if gotRes.Steps != refRes.Steps || got.Heartbeats != ref.Heartbeats ||
			got.Deliveries != ref.Deliveries || got.Sends != ref.Sends {
			t.Errorf("workers=%d: trajectory diverged: steps %d/%d heartbeats %d/%d deliveries %d/%d sends %d/%d",
				workers, gotRes.Steps, refRes.Steps, got.Heartbeats, ref.Heartbeats,
				got.Deliveries, ref.Deliveries, got.Sends, ref.Sends)
		}
		if got.Drops+got.Duplicates+got.Crashes+got.Held != 0 {
			t.Errorf("workers=%d: fair model faulted: %d drops %d dups %d crashes %d held",
				workers, got.Drops, got.Duplicates, got.Crashes, got.Held)
		}
	}
}

// TestChannelLossyDropsAndRecovers: the lossy channel actually drops
// messages, and the monotone flood still reaches the full quiescent
// output through retransmission.
func TestChannelLossyDropsAndRecovers(t *testing.T) {
	_, _, _, want := chanTestSetup(t, 4)
	for _, workers := range []int{0, 2} {
		sim, res := runWithModel(t, channel.LossyFair(11, 40), 11, workers)
		if sim.Drops == 0 {
			t.Errorf("workers=%d: lossy channel never dropped a message", workers)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence under loss", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s after %d drops", workers, res.Output, want, sim.Drops)
		}
	}
}

// TestChannelDuplicateDelivery: the duplicating channel redelivers
// messages (at-least-once), and set-semantics idempotence keeps the
// monotone output intact.
func TestChannelDuplicateDelivery(t *testing.T) {
	_, _, _, want := chanTestSetup(t, 4)
	for _, workers := range []int{0, 2} {
		sim, res := runWithModel(t, channel.Duplicating(11, 40), 11, workers)
		if sim.Duplicates == 0 {
			t.Errorf("workers=%d: duplicating channel never redelivered", workers)
		}
		if sim.Deliveries <= sim.Duplicates {
			t.Errorf("workers=%d: %d deliveries vs %d duplicates: duplicates are extra deliveries",
				workers, sim.Deliveries, sim.Duplicates)
		}
		if !res.Quiescent || !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s under duplication", workers, res.Output, want)
		}
	}
}

// TestChannelPartitionHeals: during severed epochs cross-cut messages
// are parked (Held grows, quiescence is refused while unseen content
// is parked), the heal releases them, and the run still converges to
// the full output.
func TestChannelPartitionHeals(t *testing.T) {
	for _, workers := range []int{0, 2} {
		_, _, _, want := chanTestSetup(t, 4)
		sim, res := runWithModel(t, channel.Partition(16, 4), 11, workers)
		if sim.Held == 0 {
			t.Errorf("workers=%d: partition never held a message", workers)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence after heal", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s across partition epochs", workers, res.Output, want)
		}
	}
}

// TestChannelPartitionBlocksQuiescence: a permanently severed
// partition (huge epoch) must keep both runtimes from declaring
// quiescence while undelivered cross-cut content is parked — the
// step budget runs out instead.
func TestChannelPartitionBlocksQuiescence(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		net, tr, part, _ := chanTestSetup(t, 4)
		sim, err := NewSim(net, tr, part)
		if err != nil {
			t.Fatal(err)
		}
		sim.CoalesceDuplicates = true
		sim.SetChannel(channel.Partition(1<<30, 4))
		var res RunResult
		if workers > 0 {
			res, err = sim.RunParallel(ParallelOptions{Seed: 3, Workers: workers, MaxSteps: 2000})
		} else {
			res, err = sim.Run(NewRandomScheduler(3), 2000)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Quiescent {
			t.Fatalf("workers=%d: run declared quiescence with unseen messages parked at a severed link", workers)
		}
		if sim.PendingHeld() == 0 {
			t.Fatalf("workers=%d: permanent partition holds no messages", workers)
		}
	}
}

// TestChannelCrashSurvivor: a scheduled crash wipes the node's buffer
// and volatile memory but keeps the persisted relations; the monotone
// flood re-learns everything from its neighbours' retransmissions and
// the run still quiesces on the full output.
func TestChannelCrashSurvivor(t *testing.T) {
	for _, workers := range []int{0, 2} {
		_, _, _, want := chanTestSetup(t, 4)
		m := channel.CrashRestart([]channel.CrashEvent{{Step: 12, Node: 1}, {Step: 30, Node: 2}})
		sim, res := runWithModel(t, m, 11, workers)
		if sim.Crashes != 2 {
			t.Errorf("workers=%d: %d crashes, want 2", workers, sim.Crashes)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence after crash/restart", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s after crashes", workers, res.Output, want)
		}
	}
}

// TestCrashDropsVolatileKeepsPersisted: Crash resets exactly the
// volatile half of the node: buffer gone, memory relations gone,
// input fragment and system relations intact.
func TestCrashDropsVolatileKeepsPersisted(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 2)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetChannel(channel.FairLossless())
	v := net.Nodes()[0]
	if err := sim.Crash("nope"); err == nil {
		t.Error("crash at unknown node succeeded")
	}

	// Drive a few transitions so memory and buffers fill.
	for i := 0; i < 6; i++ {
		for _, w := range net.Nodes() {
			if err := sim.Heartbeat(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sim.Buffer(v)) == 0 {
		t.Fatal("setup: buffer still empty")
	}
	if sim.State(v).RelationOr("R", 1).Empty() {
		t.Fatal("setup: memory relation still empty")
	}
	before := sim.State(v).RelationOr("S", 1).Clone()

	if err := sim.Crash(v); err != nil {
		t.Fatal(err)
	}
	if sim.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", sim.Crashes)
	}
	if len(sim.Buffer(v)) != 0 {
		t.Error("crash kept the message buffer")
	}
	if !sim.State(v).RelationOr("R", 1).Empty() {
		t.Error("crash kept the volatile memory relation R")
	}
	if !sim.State(v).RelationOr("S", 1).Equal(before) {
		t.Error("crash lost the persisted input fragment S")
	}
	if sim.State(v).RelationOr(transducer.SysId, 1).Empty() ||
		sim.State(v).RelationOr(transducer.SysAll, 1).Empty() {
		t.Error("crash lost the system relations")
	}
}

// TestSetChannelMidRunCrashRestoresInitial: a crash/restart model
// bound after the run started takes effect from the current step, and
// the crash restores exactly the node's initial state — input
// fragment, Id and All — however far its memory has moved. Crash also
// works on a sim that never bound a model.
func TestSetChannelMidRunCrashRestoresInitial(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 2)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	v := net.Nodes()[1]
	initial := sim.State(v).Clone()
	for i := 0; i < 6; i++ {
		for _, w := range net.Nodes() {
			if err := sim.Heartbeat(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sim.State(v).Equal(initial) {
		t.Fatal("setup: node state never changed")
	}

	// An event at the current step is in the past and never fires; the
	// one at the next step does.
	sim.SetChannel(channel.CrashRestart([]channel.CrashEvent{
		{Step: sim.Steps, Node: 0}, {Step: sim.Steps + 1, Node: 1}}))
	if err := sim.Heartbeat(net.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	sim.advanceChannel()
	if sim.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1 (only the future event fires)", sim.Crashes)
	}
	if !sim.State(v).Equal(initial) {
		t.Errorf("crash restored %s, want the initial state %s", sim.State(v), initial)
	}

	fresh, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Crash(v); err != nil {
		t.Errorf("Crash without a bound model: %v", err)
	}
}
