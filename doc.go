// Package declnet reproduces "Relational transducers for declarative
// networking" (Ameloot, Neven, Van den Bussche; PODS 2011) as a Go
// library: networks of relational transducers with a full operational
// semantics, the query-language substrates the paper builds on, the
// transducer constructions of every example and proof in the paper,
// and the analysis machinery of the CALM theorem (consistency,
// network-topology independence, coordination-freeness, monotonicity).
//
// This root package is the data model and transducer layer: Values,
// Facts, Relations, Instances and Schemas (§2's relational model), the
// Query interface every local language implements, and the Transducer
// type with its Builder (§2.1's abstract relational transducers over
// the implicit system schema {Id/1, All/1}).
//
// The public surface is organized as facade packages over it:
//
//	declnet          facts, instances, schemas, queries, transducers
//	declnet/fo       first-order logic queries, active-domain semantics
//	declnet/datalog  Datalog with stratified negation, semi-naive engine
//	declnet/while    the while language (FO + assignment + loops)
//	declnet/run      networks, topologies, partitions, schedulers, runs
//	declnet/build    the paper's transducer constructions + catalogue
//	declnet/analyze  CALM: consistency, freeness, monotonicity, Thm 16
//	declnet/dedalus  Dedalus: temporal Datalog + the Theorem 18 compiler
//	declnet/tm       Turing machines and word structures (§8)
//
// A minimal session — the distributed transitive closure of Example 3
// run to quiescence on a ring — reads:
//
//	tr := build.TransitiveClosure()
//	I := declnet.FromFacts(declnet.NewFact("S", "a", "b"), declnet.NewFact("S", "b", "c"))
//	net := run.Ring(4)
//	out, err := run.ToQuiescence(net, tr, run.RoundRobinSplit(I, net), run.Options{Seed: 42})
//
// and the CALM questions about it are one call each:
//
//	cls := analyze.Classify(tr)                                   // §4 syntax
//	rep, _ := analyze.CheckConsistency(net, tr, I, opts)          // §4 semantics
//	free, _, _ := analyze.CoordinationFree(nets, tr, I, expected) // §5
//	viol, _ := analyze.CheckMonotone(tr, analyze.GrowingChain(I)) // Thm 12
//	lint := analyze.Lint(tr)                                      // static verdicts + witnesses
//
// analyze.Lint is the static CALM analyzer (internal/sa): a polarized
// dependency graph over all queries of the transducer yields
// per-relation monotonicity, stratification verdicts with cycle
// witnesses, provably-empty queries, and a refined classification
// that only ever widens the syntactic one. Its verdict lattice is
// one-sided — OK means statically PROVED, not-OK means unproved,
// never disproved — and every verdict carries a witness (relation,
// query, position, reason chain). The proofs are machine-checked
// against the semantic sweeps by the soundness harness in
// internal/sa.
//
// Custom transducers are assembled with the Builder; any of the
// substrate languages (or a plain Go function via NewFunc) serves as
// the query language:
//
//	tr, err := declnet.NewBuilder("id", declnet.Schema{"S": 1}).
//		Msg("M", 1).Mem("R", 1).
//		Snd("M", fo.MustQuery("snd", []string{"x"}, fo.AtomF("S", "x"))).
//		Ins("R", fo.MustQuery("ins", []string{"x"}, fo.OrF(fo.AtomF("R", "x"), fo.AtomF("M", "x")))).
//		Out(1, fo.MustQuery("out", []string{"x"}, fo.OrF(fo.AtomF("S", "x"), fo.AtomF("R", "x")))).
//		Build()
//
// # The interned relational kernel
//
// Underneath the facades, storage and evaluation share one kernel
// (internal/fact). Values are interned into uint32 IDs by an
// interning dictionary (Dict) sharded by value hash — per-shard
// mutexes serialize only fresh-ID assignment, reads never lock —
// tuples are keyed by their packed ID sequences, and relations are
// hash sets over those keys with lazily built per-column hash
// indexes; semi-naive fixpoints run on the kernel's delta-relation
// type, and FO queries expose exact semi-naive delta evaluation for
// their positive branches, as do the linear union and copy queries of
// package query. Every relation, instance, delta and batch
// carries its owning *Dict and derived values inherit it; a
// process-default dictionary (DefaultDict) keeps dictionary-unaware
// code working unchanged, NewDict mints a private ID space whose
// whole universe is reclaimed when the last handle is dropped, Rekey
// re-encodes across dictionaries, and mixing dictionaries in a
// mutating set operation is a checked error.
//
// # The compiled query-plan layer
//
// Every local query language evaluates through one physical plan
// layer (internal/plan): conjunctive joins are described as atoms
// over compile-time numbered registers plus filters (anti-probe
// negation, (in)equalities, residual-guard hooks), compiled ONCE per
// query by a cost-driven static orderer (bound-term count, relation
// cardinality tie-breaks from the first bound instance) into a
// schedule of scan / index-probe / check / guard / project ops, and
// executed over dense register slots instead of per-call binding
// maps. FO branch conjunctions, Datalog rule bodies (with Dedalus'
// NOW/NEXT as pre-bound input registers) and the algebra's bridging
// σ(L×R) join all lower onto it; the per-pinned-atom delta schedules
// behind EvalDelta and incremental firing are cached alongside, each
// sync.Once-guarded so one plan serves every worker of the parallel
// runtime. run.Explain renders the compiled plans of a transducer's
// queries in a stable, diffable format (transduce -explain).
//
// # The columnar batch kernel
//
// Large inputs take a vectorized path through the same compiled
// schedules: relations expose a columnar view (per-column []uint32
// ID vectors with incrementally maintained hash indexes and
// radix-sorted runs, internal/fact), and internal/plan executes the
// schedule over column batches — merge joins on sorted ID runs when
// both sides are large, vectorized hash probes otherwise, batch
// filters (residual (in)equalities lower to column-pass filter ops,
// not per-row guard hooks), and a batch output append that
// deduplicates whole column slabs against the destination relation
// before allocating anything: slab radix-sorted, duplicates dropped
// against the relation's whole-row run or by hash probes, survivors
// appended through one byte arena (fact.Sink — also the staging path
// of semi-naive delta rounds). The
// pipeline engages per execution by a cardinality threshold (default
// 4096 tuples; plan.SetBatchMode / DECLNET_BATCH select
// "auto"/"off"/"always", plan.SetBatchThreshold /
// DECLNET_BATCH_THRESHOLD tune the cutover), so small inputs keep the
// register-slot executor's low constant factors while million-tuple
// relations get the batch operators — transparently, under Eval,
// EvalDelta, incremental firing, Sim and RunParallel alike. Explain
// output names the pipeline each query will take; differential tests
// pin both pipelines and the reference executor bit-identical.
//
// Simulation is incremental on top of that: each node of a running
// network carries a firing cache (per-query results on the node
// state, advanced by delta firing), so a delivery evaluates against
// (state, Δ = delivered fact) for monotone/streaming transducers and
// falls back to full evaluation for non-monotone ones — with effects
// identical to the textbook transition either way. The flood
// substrate is incremental in every query: its sends and accumulator
// inserts are unions, and its output on the collected fragment
// advances by the facts a state change adds to that fragment, which
// are usually none. A local transition
// is a function of (state, received fact), and a fair run keeps
// redelivering known facts to saturated nodes, so the cache also
// memoizes each transition per state and receive instance: a
// transition that changes no memory relation keeps the same state
// instance and replays from the memo without evaluating or
// allocating, and any state change clears the memo. Intern pre-loads
// values into the process-default dictionary; InternedValues reports
// its size. Each dictionary shard's read path is lock-free (value→ID
// through a sync.Map, ID→value through an atomically published
// slice) and fresh-ID assignment locks only the shard the value
// hashes to, so concurrent runtime shards neither contend on reads
// nor funnel writes through one mutex; a per-run dictionary
// (run.Options.Dict) removes cross-run sharing entirely and lets the
// run's universe be collected when the run is dropped.
//
// # The shard-resident parallel runtime
//
// run.Options.Workers > 0 (or Sim.RunParallel directly) executes a
// run in parallel rounds: the nodes are cut into contiguous-index
// shards (run.Options.Shards overrides the count; the default is
// min(workers, nodes)), each shard resident on one worker for the
// whole run, and every node performs one transition per round — a
// heartbeat, or the delivery of a buffered fact chosen by the node's
// own PCG stream — inside its shard. Effects that stay inside the
// shard (sends to same-shard neighbors) are applied shard-locally;
// cross-shard sends are batched into per-(source, destination) outbox
// mailboxes and drained by the destination shard at the round
// barrier in stable node order, so no shard ever writes another
// shard's nodes. Quiescence detection is dirty-set driven: a node is
// re-probed only when its buffer gained an unseen fact, its state
// changed, or it crashed/restarted — verdict monotonicity (a
// saturated node stays saturated until one of those events) makes
// the cached verdicts sound, and Sim.SetFullProbeSweep(true) restores
// the probe-everything ablation for differential testing.
//
// Rounds are sound because single-node transitions on distinct nodes
// commute: a transition reads only its own node's state and one fact
// of its own pre-round buffer, and sends only APPEND to neighbors'
// buffers. Every round therefore equals the sequential interleaving
// of the same per-node events in node order, and every parallel run
// is a fair run of the paper's §3 semantics.
//
// Determinism contract: the trajectory is a pure function of the
// seed. Workers and Shards change wall-clock time, never outputs,
// states, buffers, counters, probe counts or traces — Workers=8 is
// bit-identical to Workers=1, and any Shards override is
// bit-identical to the default geometry. The differential harness in
// internal/dist verifies this under the race detector for every
// construction of the paper (and, for the dirty set, against the
// full-sweep ablation across every fault scenario), and cross-checks
// the incremental firing against the specification evaluator under
// random schedules. The consistency and topology-independence sweeps
// and the CALM analyses fan their independent runs across all cores
// on top of the same runtime.
//
// # Channel models and fault scenarios
//
// The paper fixes one channel — arbitrary-order but fair and
// lossless delivery. The simulator makes that channel pluggable
// (internal/channel, surfaced through declnet/run): a ChannelModel
// owns which buffered messages are deliverable, droppable or
// duplicable at each step, which links are severed, and which nodes
// crash. run.Options.Channel selects a scenario by spec — "fair"
// (the default every sim binds), "lossy:PCT"
// (message loss recovered by retransmission), "dup:PCT"
// (at-least-once delivery), "partition:EPOCH" (alternating
// sever/heal epochs with held-message release at the heal) and
// "crash:NODE@STEP,..." (crash/restart: buffer and volatile memory
// lost, the Dedalus-style persisted relations — input fragment, Id,
// All — retained). Both runtimes delegate their delivery decisions
// to the model (the parallel rounds via each node's PCG stream, the
// sequential loop by filtering scheduler proposals), so every
// scenario is deterministic per (seed, scenario) and the
// differential guarantees extend to faults unchanged.
//
// The CALM theorem predicts the behavior under weakened channels:
// monotone / coordination-free programs reach the same quiescent
// output under every fair channel model, while non-monotone programs
// can be driven off the fair answer — analyze.CheckChannelRobustness
// runs that experiment and exhibits the diverging scenarios.
// SweepOptions.Channels fans the consistency sweeps across channel
// models the way they already fan across partitions and networks.
//
// The implementation lives under internal/ and is reachable only
// through these facades. Six CLIs (cmd/transduce, cmd/datalogi,
// cmd/calmcheck, cmd/calmlint, cmd/repolint, cmd/dedalusrun) and five
// runnable examples (examples/) exercise the public surface; the
// benchmark suite in bench_test.go regenerates the experiment index
// E1-E21 against the paper's claims (BENCHMARKS.md has the index,
// BENCH_kernel.json the measured trajectory, BENCH_parallel.json the
// parallel-runtime numbers, BENCH_scenarios.json the fault-scenario
// matrix, BENCH_plan.json the compiled query-plan ablation,
// BENCH_static.json the static-analyzer experiment,
// BENCH_columnar.json the columnar batch-kernel ablation).
package declnet
