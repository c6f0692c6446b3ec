package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"declnet"
	"declnet/run"
)

type config struct {
	seed    int64
	seconds float64
	trace   bool
	// small runs the smoke-test input sizes.
	small bool
}

// minReps is the least number of measured repetitions of a run,
// however short --seconds is.
const minReps = 3

type spec struct{ name, unit string }

// endToEnd are the --trace 0 metrics, each a median over the measured
// repetitions of one run.
var endToEnd = []spec{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"steps", "count"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"live_mb", "MB"},
}

// perLayer are the --trace 1 metrics. A metric of a layer a workload
// does not run reads 0 there.
var perLayer = []spec{
	{"network.transition_s", "s"},
	{"network.deliver_us_p50", "us"},
	{"network.deliver_us_p99", "us"},
	{"network.heartbeat_us_p50", "us"},
	{"network.heartbeat_us_p99", "us"},
	{"network.probe_s", "s"},
	{"network.probes", "count"},
	{"network.quiescence_checks", "count"},
	{"network.probes_per_check", "ratio"},
	{"network.sched_s", "s"},
	{"network.deliveries", "count"},
	{"network.heartbeats", "count"},
	{"network.buffered_peak", "count"},
	{"network.msgs", "count"},
	{"network.par_fire_s", "s"},
	{"network.par_merge_s", "s"},
	{"network.par_probe_s", "s"},
	{"network.par_probes", "count"},
	{"network.par_fire_skew", "ratio"},
	{"transducer.state_changed_ratio", "ratio"},
	{"transducer.sent_per_transition", "ratio"},
	{"transducer.new_output_tuples", "count"},
	{"channel.drops", "count"},
	{"channel.dups", "count"},
	{"channel.held", "count"},
	{"channel.drop_ratio", "ratio"},
	{"plan.eval_s", "s"},
	{"plan.out_rows", "count"},
	{"plan.rows_per_s", "1/s"},
	{"plan.reference_eval_s", "s"},
	{"fact.rekey_s", "s"},
	{"fact.dict_values", "count"},
	{"gc.cpu_s", "s"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"alloc.bytes_per_step", "B"},
	{"alloc.objects_per_step", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// samples holds each metric's values over the repetitions of a run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile is the nearest-rank percentile of durations, in µs.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	d = slices.Clone(d)
	slices.Sort(d)
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return float64(d[max(i, 0)]) / float64(time.Microsecond)
}

// instance is one independent input of a batch: its seeds, its
// reference output, and the steps and msgs of its first run, which
// every later run must repeat exactly.
type instance struct {
	seeds seeds
	ref   *declnet.Relation
	first *[2]int
}

// runner holds what every repetition of one run shares.
type runner struct {
	w    *workload
	sz   size
	inst []*instance
}

func newRunner(w *workload, cfg config) (*runner, error) {
	r := &runner{w: w, sz: w.full}
	if cfg.small {
		r.sz = w.small
	}
	batch := max(w.batch, 1)
	if cfg.small {
		batch = min(batch, 2)
	}
	for i := range batch {
		in := &instance{seeds: deriveSeeds(cfg.seed, i)}
		ref, err := r.reference(in)
		if err != nil {
			return nil, fmt.Errorf("reference output: %w", err)
		}
		in.ref = ref
		r.inst = append(r.inst, in)
	}
	return r, nil
}

func (r *runner) reference(in *instance) (*declnet.Relation, error) {
	net, input := r.w.input(r.sz, in.seeds)
	return r.w.reference(net, input)
}

// bench runs w for cfg.seconds and aggregates the repetitions.
func bench(w *workload, cfg config) (result, error) {
	r, err := newRunner(w, cfg)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	tally := func(err error) bool {
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Printf("# repetition %d failed: %v\n", res.Attempted, err)
		}
		return err == nil
	}
	// Warm-up: one instance grows the heap and fills lazy caches before
	// timing starts. It is checked, and counts as a repetition.
	tally(r.runInstance(r.inst[0], nil, &rep{}, true))

	e2e, layer := samples{}, samples{}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for reps := 0; reps < minReps || time.Now().Before(deadline); reps++ {
		u, err := r.repetition(nil)
		if tally(err) {
			u.record(e2e, layer)
		}
		if !cfg.trace {
			continue
		}
		t := &tracer{}
		u, err = r.repetition(t)
		if err == nil {
			err = r.recordTraced(u, t, layer)
		}
		if tally(err) {
			layer.add("trace.run_s", u.run)
		}
	}
	res.Correct = res.Failed == 0
	res.info = append(res.info,
		metricLine{"fail_rate", float64(res.Failed) / float64(res.Attempted), "ratio"},
		metricLine{"msgs", median(e2e["msgs"]), "count"})

	if !cfg.trace {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{median(e2e[s.name]), s.unit}
		}
		return res, nil
	}
	if u, t := median(e2e["run_s"]), median(layer["trace.run_s"]); u > 0 {
		layer.add("trace.overhead_ratio", t/u)
	}
	for _, s := range perLayer {
		res.Metrics[s.name] = metric{median(layer[s.name]), s.unit}
	}
	return res, nil
}

// rep is one measured repetition: every instance of the batch set up,
// run to quiescence and checked. Times and counts are sums over the
// batch.
type rep struct {
	setup, run, cpu          float64 // seconds
	allocBytes, allocObjects float64
	liveBytes                float64 // after the batch's last run
	gcCPU, busyCPU           float64
	gcCycles, gcPause        float64

	steps, msgs, deliveries, heartbeats int
	drops, dups, held, outRows          int
	probes                              int64
	dictValues                          int

	fire, merge, probe time.Duration // parallel runtime, summed over shards
	maxFire, meanFire  time.Duration // per instance, summed over the batch
	parProbes          int64
}

func (u rep) record(e2e, layer samples) {
	steps := float64(u.steps)
	e2e.add("run_s", u.run)
	e2e.add("cpu_s", u.cpu)
	e2e.add("setup_s", u.setup)
	e2e.add("steps", steps)
	e2e.add("msgs", float64(u.msgs))
	e2e.add("alloc_mb", u.allocBytes/1e6)
	e2e.add("allocs_k", u.allocObjects/1e3)
	e2e.add("live_mb", u.liveBytes/1e6)

	layer.add("network.probes", float64(u.probes))
	layer.add("network.deliveries", float64(u.deliveries))
	layer.add("network.heartbeats", float64(u.heartbeats))
	layer.add("network.msgs", float64(u.msgs))
	layer.add("network.par_fire_s", u.fire.Seconds())
	layer.add("network.par_merge_s", u.merge.Seconds())
	layer.add("network.par_probe_s", u.probe.Seconds())
	layer.add("network.par_probes", float64(u.parProbes))
	layer.add("network.par_fire_skew", ratio(u.maxFire.Seconds(), u.meanFire.Seconds()))
	layer.add("channel.drops", float64(u.drops))
	layer.add("channel.dups", float64(u.dups))
	layer.add("channel.held", float64(u.held))
	layer.add("channel.drop_ratio", ratio(float64(u.drops), float64(u.drops+u.deliveries)))
	layer.add("fact.dict_values", float64(u.dictValues))
	layer.add("gc.cpu_s", u.gcCPU)
	layer.add("gc.cpu_share", ratio(u.gcCPU, u.busyCPU))
	layer.add("gc.cycles", u.gcCycles)
	layer.add("gc.pause_s", u.gcPause)
	layer.add("alloc.bytes_per_step", u.allocBytes/steps)
	layer.add("alloc.objects_per_step", u.allocObjects/steps)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordTraced adds the spans and counts of a traced repetition, plus
// the reference evaluation and an input rekey, each timed on its own.
func (r *runner) recordTraced(u rep, t *tracer, layer samples) error {
	transition := t.transitionTime().Seconds()
	layer.add("network.transition_s", transition)
	layer.add("network.deliver_us_p50", percentile(t.deliver, 50))
	layer.add("network.deliver_us_p99", percentile(t.deliver, 99))
	layer.add("network.heartbeat_us_p50", percentile(t.heartbeat, 50))
	layer.add("network.heartbeat_us_p99", percentile(t.heartbeat, 99))
	layer.add("network.probe_s", t.probe.Seconds())
	layer.add("network.quiescence_checks", float64(t.checks))
	layer.add("network.probes_per_check", ratio(float64(u.probes), float64(t.checks)))
	layer.add("network.sched_s", t.sched.Seconds())
	layer.add("network.buffered_peak", float64(t.bufferedPeak))
	layer.add("transducer.state_changed_ratio", ratio(float64(t.changed), float64(t.transitions)))
	layer.add("transducer.sent_per_transition", ratio(float64(t.sent), float64(t.transitions)))
	layer.add("transducer.new_output_tuples", float64(t.newOutput))

	evalS, rows := 0.0, 0.0
	if r.w.evalOnly {
		evalS, rows = transition, float64(u.outRows)
	}
	layer.add("plan.eval_s", evalS)
	layer.add("plan.out_rows", rows)
	layer.add("plan.rows_per_s", ratio(rows, evalS))

	var refTime, rekeyTime time.Duration
	for _, in := range r.inst {
		net, input := r.w.input(r.sz, in.seeds)
		if r.w.queryRef {
			start := time.Now()
			ref, err := r.w.reference(net, input)
			refTime += time.Since(start)
			if err != nil {
				return fmt.Errorf("reference output: %w", err)
			}
			if !ref.Equal(in.ref) {
				return fmt.Errorf("reference output differs between evaluations")
			}
		}
		start := time.Now()
		input.Rekey(run.NewDict())
		rekeyTime += time.Since(start)
	}
	layer.add("plan.reference_eval_s", refTime.Seconds())
	layer.add("fact.rekey_s", rekeyTime.Seconds())
	return nil
}

// repetition runs every instance of the batch once, with the tracer
// attached when t is not nil.
func (r *runner) repetition(t *tracer) (rep, error) {
	var u rep
	for i, in := range r.inst {
		if err := r.runInstance(in, t, &u, i == len(r.inst)-1); err != nil {
			return u, err
		}
	}
	return u, nil
}

// runInstance sets up one instance, runs it to quiescence and checks
// it, adding its figures to u. The process and Go runtime counters are
// read around the run call alone. With last, it then measures the live
// heap, which also leaves the next repetition a collected heap.
func (r *runner) runInstance(in *instance, t *tracer, u *rep, last bool) error {
	p, err := r.w.setup(r.sz, in.seeds)
	if err != nil {
		return err
	}
	var sched run.Scheduler
	if t != nil {
		sched = t.attach(p.sim, r.w.scheduler(in.seeds))
	}
	before := readCounters()
	start := time.Now()
	if t != nil {
		t.start()
	}
	res, err := r.w.execute(p, in.seeds, sched)
	if t != nil {
		t.finish()
	}
	wall := time.Since(start)
	after := readCounters()
	if err != nil {
		return err
	}
	if err := r.w.verify(p, res, in.ref); err != nil {
		return err
	}
	got := [2]int{res.Steps, res.Sends}
	if in.first == nil {
		in.first = &got
	} else if got != *in.first {
		return fmt.Errorf("not deterministic: steps, msgs = %v, first run had %v", got, *in.first)
	}
	if last {
		runtime.GC()
		u.liveBytes = readCounters().live
		runtime.KeepAlive(p.sim)
	}

	sim := p.sim
	u.setup += p.setup.Seconds()
	u.run += wall.Seconds()
	u.cpu += after.cpu - before.cpu
	u.allocBytes += after.allocBytes - before.allocBytes
	u.allocObjects += after.allocObjects - before.allocObjects
	u.gcCPU += after.gcCPU - before.gcCPU
	u.busyCPU += after.busyCPU - before.busyCPU
	u.gcCycles += after.gcCycles - before.gcCycles
	u.gcPause += after.gcPause - before.gcPause
	u.steps += res.Steps
	u.msgs += res.Sends
	u.deliveries += sim.Deliveries
	u.heartbeats += sim.Heartbeats
	u.drops += sim.Drops
	u.dups += sim.Duplicates
	u.held += sim.Held
	u.outRows += res.Output.Len()
	u.probes += sim.ProbeCount()
	u.dictValues = sim.Dict().Len()
	stats := sim.ShardStats()
	var fire, maxFire time.Duration
	for _, st := range stats {
		fire += st.Fire
		maxFire = max(maxFire, st.Fire)
		u.merge += st.Merge
		u.probe += st.Probe
		u.parProbes += st.Probes
	}
	u.fire += fire
	u.maxFire += maxFire
	if len(stats) > 0 {
		u.meanFire += fire / time.Duration(len(stats))
	}
	return nil
}

// counters is a reading of the process and Go runtime counters.
type counters struct {
	cpu                                float64 // process user+sys seconds
	allocBytes, allocObjects, gcCycles float64
	gcCPU, busyCPU                     float64 // runtime CPU estimates, seconds
	gcPause                            float64
	live                               float64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		panic("runtime metric " + s[i].Name + " is not supported by this Go version")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return counters{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes:   val(0),
		allocObjects: val(1),
		gcCycles:     val(2),
		gcCPU:        val(3),
		busyCPU:      val(4) - val(5),
		gcPause:      time.Duration(ms.PauseTotalNs).Seconds(),
		live:         val(6),
	}
}
