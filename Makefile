GO ?= go

.PHONY: all build test vet fmt-check detlint ci bench race bench-experiments bench-cluster bench-fleet bench-chaos bench-kernel perfbench-smoke cover

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# detlint is the determinism lint: it fails on wall-clock reads
# (time.Now/time.Since), global math/rand use, and map-iteration
# ordering hazards in internal/ — the constructs that silently break
# byte-reproducible output. Exemptions are //detlint:allow annotations
# with a written reason.
detlint:
	$(GO) run ./cmd/detlint

# ci is the tier-1 gate: formatting, vet, determinism lint, build, tests.
ci: fmt-check vet detlint build test

# cover runs the whole suite with coverage and prints the per-function
# summary plus the total; cover.out is left behind for `go tool cover
# -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -20
	@$(GO) tool cover -func=cover.out | grep total:

# race runs the whole test suite under the race detector: the parallel
# run engine (internal/runner, the experiments fan-out) must stay clean
# here, and the golden test (TestParallelOutputByteIdentical) renders
# every experiment, serve-shard's interconnect path included, under the
# detector and diffs it against testdata/golden. The fault-injection
# determinism test (TestFaultExperimentsDeterministic) rides along: it
# renders serve-chaos and serve-grayfail twice each and diffs the
# renders against each other and the goldens, so its -race leg
# exercises the crash/redeliver and breaker/hedge paths.
race:
	$(GO) test -race ./...

# bench compiles and executes every benchmark exactly once (no test
# functions), so the benchmark harness cannot rot, and pipes the output
# through benchguard, which fails loudly if any benchmark baselined in
# BENCH_fleet.json, BENCH_chaos.json, BENCH_cluster.json, or
# BENCH_kernel.json regresses past its recorded allocs/op or bytes/op.
# Wall time is advisory: an ns_factor breach prints a WARN line but
# never fails the run.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... | $(GO) run ./cmd/benchguard -baseline BENCH_fleet.json -baseline BENCH_chaos.json -baseline BENCH_cluster.json -baseline BENCH_kernel.json

# bench-experiments reproduces the BENCH_experiments.json measurement:
# the full experiment registry, sequential vs all cores.
bench-experiments:
	$(GO) test -bench BenchmarkAllExperiments -benchtime 3x -run '^$$' .

# bench-cluster reproduces (and gates) the BENCH_cluster.json
# measurement: the multi-node serving path at 1 and 4 nodes over a zero
# hop. `make bench` (and the CI bench job) already executes these once;
# this target is the recorded baseline's regeneration recipe.
bench-cluster:
	$(GO) test -bench BenchmarkClusterServe -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_cluster.json

# bench-fleet reproduces (and gates) the BENCH_fleet.json measurement:
# the 100-node / 1M-request fleet hot path in sketch + arena mode. The
# guard fails if allocs/op or bytes/op regress past the recorded
# baseline; after an intentional change, paste the new numbers into
# BENCH_fleet.json.
bench-fleet:
	$(GO) test -bench BenchmarkFleetServe -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_fleet.json

# bench-chaos reproduces (and gates) the BENCH_chaos.json measurement:
# the fault-injected serving path — fail-stop crash/redeliver and the
# gray-failure mitigation stack (health, breaker, hedging). `make
# bench` (and the CI bench job) already executes these once; this
# target is the recorded baseline's regeneration recipe.
bench-chaos:
	$(GO) test -bench BenchmarkChaosServe -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_chaos.json

# bench-kernel reproduces (and gates) the BENCH_kernel.json measurement:
# the event loop, the single-node serve loop, the scheduler inner loop,
# the cluster router's residency-first pick over a warm 100-node fleet
# (BenchmarkAffinityPick), and one executor's steady-state cycle
# (BenchmarkExecutorCycle). `make bench` (and the CI bench job)
# already executes these once; this target is the recorded baseline's
# regeneration recipe.
bench-kernel:
	$(GO) test -bench 'BenchmarkSimKernel|BenchmarkPoissonServe$$|BenchmarkMinMaxAssign|BenchmarkAffinityPick|BenchmarkExecutorCycle' -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_kernel.json

# perfbench-smoke runs the repository's benchmark (perfbench/, see
# BENCHMARK.json) for one host second per workload with tracing off and
# checks correctness only: each run's JSON result line must report
# "correct": true and "failed": 0. Wall time is never gated here.
PERFBENCH_WORKLOADS = fleet-steady fleet-faults paper-grid

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$(python3 perfbench/run.py --workload $$w --seconds 1 --trace 0) || { \
			printf '%s\n' "$$out"; echo "perfbench-smoke: $$w: benchmark exited non-zero"; exit 1; }; \
		printf '%s\n' "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || { \
			printf '%s\n' "$$out"; echo "perfbench-smoke: $$w: result not correct or has failed operations"; exit 1; }; \
		echo "perfbench-smoke: $$w OK"; \
	done
