GO ?= go
BENCHTIME ?= 300ms
# BENCH_SIZE scales the columnar-kernel experiment (E19): "small"
# (10^4 tuples, CI smoke) or "large" (10^5 and 10^6 tuples, the
# configurations BENCH_columnar.json records).
BENCH_SIZE ?= small

.PHONY: build test race race-batch bench bench-raw bench-plan bench-scenarios bench-static bench-columnar bench-scale bench-intern scale-gate intern-gate scenarios fuzz vet lint check clean

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench writes machine-readable results (ns/op plus the custom
# steps/op, msgs/op, ... metrics per experiment; see BENCHMARKS.md)
# to BENCH_kernel.json via cmd/benchjson.
bench:
	$(GO) test -run xxx -bench . -benchtime $(BENCHTIME) . > bench.out
	$(GO) run ./cmd/benchjson -label local < bench.out > BENCH_kernel.json
	@rm -f bench.out
	@echo wrote BENCH_kernel.json

bench-raw:
	$(GO) test -run xxx -bench . -benchmem .

# bench-parallel records the parallel-runtime benches (E15 workers
# sweep + concurrent interning) to BENCH_parallel.json.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel' -benchtime $(BENCHTIME) . > benchp.out
	$(GO) run ./cmd/benchjson -label local -workers 4 < benchp.out > BENCH_parallel.json
	@rm -f benchp.out
	@echo wrote BENCH_parallel.json

# race-parallel runs the differential correctness harness under the
# race detector: parallel ≡ sequential, firing ≡ Step, permutation
# invariance.
race-parallel:
	$(GO) test -race -run 'Parallel|Differential' ./...

# race-batch forces every sized plan evaluation through the columnar
# batch pipeline (DECLNET_BATCH=always) and runs the columnar
# differential suites — three-way plan executor agreement, corpus
# queries/programs vs their oracles, parallel runs — under the race
# detector. Catches batch-only bugs the threshold would hide on
# test-sized inputs.
race-batch:
	DECLNET_BATCH=always $(GO) test -race -run 'Columnar|BatchDifferential' ./...

# scenarios runs the fault-scenario matrix under the race detector:
# channel-model unit tests, the fair-channel bit-identity and
# monotone-preservation property harness over the construction zoo,
# the CALM channel-robustness checks, and the golden and dirty-set
# harnesses that drive the shard-parallel merge with every channel
# model at 4 workers. All runs use fixed seeds — deterministic per
# (seed, scenario).
scenarios:
	$(GO) test -race -run 'Channel|Scenario|Robust|Crash|Golden|DirtySet' ./...

# bench-plan records the compiled query-plan ablation (E17:
# compile-once vs re-plan vs map-bindings reference, plus the
# end-to-end large-config run) to BENCH_plan.json.
bench-plan:
	$(GO) test -run xxx -bench 'E17PlanRuntime' -benchtime $(BENCHTIME) . > benchq.out
	$(GO) run ./cmd/benchjson -label local < benchq.out > BENCH_plan.json
	@rm -f benchq.out
	@echo wrote BENCH_plan.json

# bench-scenarios records the fault-scenario benchmark matrix (E16:
# fair vs lossy/dup/partition/crash, sequential and parallel) to
# BENCH_scenarios.json.
bench-scenarios:
	$(GO) test -run xxx -bench 'E16Scenarios' -benchtime $(BENCHTIME) . > benchs.out
	$(GO) run ./cmd/benchjson -label local -scenario auto < benchs.out > BENCH_scenarios.json
	@rm -f benchs.out
	@echo wrote BENCH_scenarios.json

# bench-columnar records the columnar batch-kernel ablation (E19:
# tuple-at-a-time register executor vs the vectorized batch pipeline
# on seeded large-input workloads) to BENCH_columnar.json. Each
# configuration is measured as the fastest of five single-shot
# samples, each from a flushed heap (the benchmark calls
# debug.FreeOSMemory before timing): the large configurations churn
# hundreds of megabytes, so any single sample can absorb a GC cycle
# or scheduling stall worth tens of percent — interference only ever
# adds time, making min-of-N the robust estimate (benchjson -agg min
# records the aggregation in the artifact).
bench-columnar:
	BENCH_SIZE=$(BENCH_SIZE) $(GO) test -run xxx -bench 'E19Columnar' -benchtime 1x -count 5 -timeout 3000s . > benchc.out
	$(GO) run ./cmd/benchjson -label local -size $(BENCH_SIZE) -agg min < benchc.out > BENCH_columnar.json
	@rm -f benchc.out
	@echo wrote BENCH_columnar.json

# bench-scale records the E20 node-count scaling family (gossip on
# ring/tree/random/functional graphs at the BENCH_SCALE tier's sizes,
# workers 1/2/4/8, fair and lossy channels) to BENCH_scale.json. The
# rows are one full run each (-benchtime 1x, min of 3): the measured
# quantity is whole-run wall clock, and interference only adds time.
# On a multi-core host, follow with `make scale-gate` to enforce the
# workers=4 speedup floor; the committed artifact from a 1-CPU dev
# host is the determinism leg and records num_cpu:1 in provenance.
BENCH_SCALE ?= medium
BENCH_COUNT ?= 3
bench-scale:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run xxx -bench 'E20Scale' -benchtime 1x -count $(BENCH_COUNT) -timeout 5400s . > benchsc.out
	$(GO) run ./cmd/benchjson -label local -scale $(BENCH_SCALE) -agg min < benchsc.out > BENCH_scale.json
	@rm -f benchsc.out
	@echo wrote BENCH_scale.json

# scale-gate enforces the E20 acceptance criterion on the artifact:
# >= 1.5x wall-clock speedup at workers=4 on the largest fair ring
# row, with multi-core provenance. Run after bench-scale on a
# multi-core host (CI's scale job does both).
scale-gate:
	$(GO) run ./cmd/scalegate -min-speedup 1.5 -require-multicore

# bench-intern records the interning-dictionary ablation (E21:
# single-lock NewDictShards(1) vs the sharded default at GOMAXPROCS
# 1/2/4/8 on fresh-intern throughput, the intern-bound columnar e2e
# leg, and the per-run reclaim measurement) to BENCH_intern.json. The
# throughput rows only mean anything on a multi-core host — on 1 CPU
# procs>1 times goroutines thrashing one core — so the committed
# 1-CPU artifact is the determinism/regression leg and CI's
# multi-core regeneration (gated by intern-gate) is the speedup leg.
bench-intern:
	$(GO) test -run xxx -bench 'E21Intern' -benchtime $(BENCHTIME) -timeout 1800s . > benchi.out
	$(GO) run ./cmd/benchjson -label local < benchi.out > BENCH_intern.json
	@rm -f benchi.out
	@echo wrote BENCH_intern.json

# intern-gate enforces the E21 acceptance criteria on the artifact:
# sharded >= 2x single-lock intern throughput at procs=4 with
# multi-core provenance, dropped per-run dictionary memory back at
# baseline, zero leakage into the process-default dictionary. Run
# after bench-intern on a multi-core host (CI's intern job does both).
intern-gate:
	$(GO) run ./cmd/interngate -min-speedup 2 -require-multicore

# bench-static records the static-analyzer experiment (E18: the
# polarity/stratification pass vs the semantic monotonicity sweep it
# is soundness-checked against) to BENCH_static.json.
bench-static:
	$(GO) test -run xxx -bench 'E18StaticAnalysis' -benchtime $(BENCHTIME) . > benchsa.out
	$(GO) run ./cmd/benchjson -label local < benchsa.out > BENCH_static.json
	@rm -f benchsa.out
	@echo wrote BENCH_static.json

# fuzz runs each parser fuzzer briefly (seed corpora are committed
# under internal/*/testdata/fuzz).
fuzz:
	$(GO) test ./internal/fo -fuzz 'FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/fo -fuzz FuzzParseQuery -fuzztime 10s
	$(GO) test ./internal/datalog -fuzz 'FuzzParse$$' -fuzztime 10s

vet:
	$(GO) vet ./...

# lint runs the repo-invariant linters (internal/lint): planonce
# (sync.Once-guarded plan/memo caches must stay guarded) and nodict
# (interning-dictionary confinement). Stdlib-only — no tool installs.
lint:
	$(GO) run ./cmd/repolint

check: vet lint build test

clean:
	$(GO) clean ./...
