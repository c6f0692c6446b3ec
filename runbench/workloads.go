package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"declnet"
	"declnet/build"
	"declnet/datalog"
	"declnet/run"
)

// workload is one seeded input family run to quiescence. The README
// beside this file says why each was chosen and which layer it loads.
type workload struct {
	name string
	// shards > 0 runs Sim.RunParallel with that many shards on one
	// worker; 0 runs the sequential Sim.Run under a seeded random
	// scheduler.
	shards int
	// channel is the run.Options.Channel scenario spec ("" is the fair
	// fast path).
	channel string
	// perRunDict gives every instance's run a fresh run.NewDict, so
	// set-up pays the ingress rekey and the run interns into its own
	// universe.
	perRunDict bool
	// queryRef marks a reference that is a central Query.Eval, timed
	// on its own as plan.reference_eval_s.
	queryRef bool
	// evalOnly marks a run whose every transition is one query
	// evaluation (one node, no messages), so its transition spans are
	// plan time.
	evalOnly bool
	maxSteps int
	// batch is the number of independent instances, each with its own
	// seeds, that one repetition runs. Quiescence under a random fair
	// schedule waits on the slowest of many random deliveries, so one
	// instance's step count swings widely from seed to seed; a batch
	// averages that out.
	batch int
	// full and small are the input sizes of a measured run and of the
	// smoke test.
	full, small size
	// input generates the network and global input instance.
	input func(sz size, s seeds) (*run.Network, *declnet.Instance)
	// transducer builds the transducer under test.
	transducer func() (*declnet.Transducer, error)
	// reference computes the expected output centrally.
	reference func(net *run.Network, in *declnet.Instance) (*declnet.Relation, error)
	// checkStates, when set, checks the final node states.
	checkStates func(sim *run.Sim, in *declnet.Instance) error
}

// size is a workload's input size: a node count for generated graphs,
// or a forest of chains × length edges.
type size struct {
	nodes, chains, length int
}

// seeds are the independent streams derived from one workload seed; the
// program only ever sees what they generate.
type seeds struct {
	graph, input, sched, channel int64
}

// deriveSeeds gives instance i of a batch its own seeds.
func deriveSeeds(seed int64, i int) seeds {
	base := 4 * uint64(i)
	return seeds{
		graph:   mix(seed, base+1),
		input:   mix(seed, base+2),
		sched:   mix(seed, base+3),
		channel: mix(seed, base+4),
	}
}

// mix is splitmix64 over (seed, stream), kept non-negative.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

const tcProgram = `
	tc(X, Y) :- S(X, Y).
	tc(X, Z) :- S(X, Y), tc(Y, Z).
`

func tcTransducer() (*declnet.Transducer, error) {
	p, err := datalog.Parse(tcProgram)
	if err != nil {
		return nil, err
	}
	return build.DatalogStreaming(p, "tc")
}

// tcReference is the central Datalog evaluation of the same program:
// the output every fair run must reach.
func tcReference(_ *run.Network, in *declnet.Instance) (*declnet.Relation, error) {
	p, err := datalog.Parse(tcProgram)
	if err != nil {
		return nil, err
	}
	q, err := datalog.NewQuery(p, "tc")
	if err != nil {
		return nil, err
	}
	return q.Eval(in)
}

// forest returns chains disjoint directed S-chains of length edges each,
// over distinct labels drawn from a seeded permutation.
func forest(seed int64, chains, length int) *declnet.Instance {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	labels := r.Perm(chains * (length + 1))
	in := declnet.NewInstance()
	for c := 0; c < chains; c++ {
		base := c * (length + 1)
		for i := 0; i < length; i++ {
			in.AddFact(declnet.NewFact("S",
				declnet.Value(fmt.Sprintf("v%d", labels[base+i])),
				declnet.Value(fmt.Sprintf("v%d", labels[base+i+1]))))
		}
	}
	return in
}

var floodSchema = declnet.Schema{"S": 2}

var workloads = []*workload{
	{
		// One-hop gossip on a random recursive tree: state churn and
		// allocation in the parallel fire/merge/probe phases; query
		// evaluation is a small share.
		name:     "gossip-random",
		shards:   2,
		maxSteps: 200_000,
		batch:    128,
		full:     size{nodes: 100},
		small:    size{nodes: 20},
		input: func(sz size, s seeds) (*run.Network, *declnet.Instance) {
			return run.RandomConnected(sz.nodes, 0, s.graph), declnet.NewInstance()
		},
		transducer: func() (*declnet.Transducer, error) { return build.Gossip(), nil },
		reference: func(net *run.Network, _ *declnet.Instance) (*declnet.Relation, error) {
			out := declnet.NewRelation(2)
			for _, v := range net.Nodes() {
				for _, w := range net.Neighbors(v) {
					out.Add(declnet.Tuple{v, w})
				}
			}
			return out, nil
		},
	},
	{
		// Oblivious flood of a chain around a ring, no output query:
		// most transitions change nothing and quiescence probes
		// dominate.
		name:     "flood-ring",
		maxSteps: 1_000_000,
		batch:    64,
		full:     size{nodes: 8, chains: 1, length: 16},
		small:    size{nodes: 4, chains: 1, length: 8},
		input: func(sz size, s seeds) (*run.Network, *declnet.Instance) {
			return run.Ring(sz.nodes), forest(s.input, sz.chains, sz.length)
		},
		transducer: func() (*declnet.Transducer, error) { return build.Flood(floodSchema, nil, 0) },
		reference: func(*run.Network, *declnet.Instance) (*declnet.Relation, error) {
			return declnet.NewRelation(0), nil
		},
		checkStates: func(sim *run.Sim, in *declnet.Instance) error {
			for _, v := range sim.Net.Nodes() {
				if !build.Collected(sim.State(v), floodSchema, false).Equal(in) {
					return fmt.Errorf("node %s did not collect the input", v)
				}
			}
			return nil
		},
	},
	{
		// Streaming transitive closure over a lossy link: every firing
		// and probe re-evaluates the closure on the plan tuple path,
		// and the only workload that runs the channel model.
		name:     "stream-tc-lossy",
		channel:  "lossy:25",
		queryRef: true,
		maxSteps: 1_000_000,
		batch:    192,
		full:     size{nodes: 2, chains: 2, length: 10},
		small:    size{nodes: 2, chains: 2, length: 4},
		input: func(sz size, s seeds) (*run.Network, *declnet.Instance) {
			return run.Line(sz.nodes), forest(s.input, sz.chains, sz.length)
		},
		transducer: tcTransducer,
		reference:  tcReference,
	},
	{
		// The same transducer on one node over a large forest with a
		// per-run dictionary: the plan columnar batch path plus
		// ingress rekeying; the network layer does almost nothing.
		name:       "tc-central",
		perRunDict: true,
		queryRef:   true,
		evalOnly:   true,
		maxSteps:   1_000,
		full:       size{nodes: 1, chains: 2000, length: 10},
		small:      size{nodes: 1, chains: 20, length: 10},
		input: func(sz size, s seeds) (*run.Network, *declnet.Instance) {
			return run.Single(), forest(s.input, sz.chains, sz.length)
		},
		transducer: tcTransducer,
		reference:  tcReference,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// prepared is one repetition after set-up: a fresh Sim on freshly
// generated input.
type prepared struct {
	sim   *run.Sim
	input *declnet.Instance
	setup time.Duration
}

// setup builds the transducer, generates and partitions the input and
// builds the Sim (rekeying the partition into a per-run dictionary where
// the workload asks for one). It is what setup_s times.
func (w *workload) setup(sz size, s seeds) (prepared, error) {
	start := time.Now()
	tr, err := w.transducer()
	if err != nil {
		return prepared{}, fmt.Errorf("build transducer: %w", err)
	}
	net, in := w.input(sz, s)
	opt := run.Options{Seed: s.channel, Channel: w.channel}
	if w.perRunDict {
		opt.Dict = run.NewDict()
	}
	sim, err := run.NewSim(net, tr, run.RoundRobinSplit(in, net), opt)
	if err != nil {
		return prepared{}, fmt.Errorf("new sim: %w", err)
	}
	return prepared{sim: sim, input: in, setup: time.Since(start)}, nil
}

// scheduler is the sequential runtime's scheduler for an instance; the
// parallel runtime has none.
func (w *workload) scheduler(s seeds) run.Scheduler {
	if w.shards > 0 {
		return nil
	}
	return run.NewRandomScheduler(s.sched)
}

// execute runs the prepared Sim to quiescence, under sched in the
// sequential runtime (nil means the plain seeded random scheduler).
func (w *workload) execute(p prepared, s seeds, sched run.Scheduler) (run.Result, error) {
	var res run.Result
	var err error
	if w.shards > 0 {
		res, err = p.sim.RunParallel(run.ParallelOptions{Seed: s.sched, Workers: 1, Shards: w.shards, MaxSteps: w.maxSteps})
	} else {
		if sched == nil {
			sched = w.scheduler(s)
		}
		res, err = p.sim.Run(sched, w.maxSteps)
	}
	if err != nil {
		return res, err
	}
	if !res.Quiescent {
		return res, fmt.Errorf("no quiescence point within %d steps", res.Steps)
	}
	return res, nil
}

// verify checks one run's result against the reference output.
func (w *workload) verify(p prepared, res run.Result, ref *declnet.Relation) error {
	if !res.Output.Equal(ref) {
		return fmt.Errorf("output has %d tuples, reference %d, and they differ", res.Output.Len(), ref.Len())
	}
	if w.checkStates != nil {
		return w.checkStates(p.sim, p.input)
	}
	return nil
}
