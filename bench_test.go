package coserve_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	coserve "repro"
	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchCtx memoizes boards, perf matrices, and the evaluation grid, so
// every benchmark iteration after the first measures the (cached)
// regeneration path rather than re-simulating the world.
var benchCtx = coserve.NewExperimentContext()

// benchExperiment is the shared driver: one benchmark per paper table
// and figure, regenerating it through the public API.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = coserve.RunExperiment(benchCtx, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(out) == 0 {
		b.Fatal("empty experiment output")
	}
}

// One benchmark per evaluation artifact of the paper.
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "tab1") }
func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFigure19(b *testing.B) { benchExperiment(b, "fig19") }

// Extension experiments (design-choice ablation and sensitivity sweeps).
func BenchmarkExtEviction(b *testing.B)     { benchExperiment(b, "ext-evict") }
func BenchmarkExtSSDSweep(b *testing.B)     { benchExperiment(b, "ext-ssd") }
func BenchmarkExtArrivalSweep(b *testing.B) { benchExperiment(b, "ext-arrival") }

// BenchmarkAllExperiments measures the full reproduction — every
// registered experiment (paper figures, extensions, serve-*) on a fresh,
// uncached context per iteration — sequentially and fanned out across
// all cores through the parallel run engine. The wall-clock ratio of
// the two sub-benchmarks is the speedup recorded in
// BENCH_experiments.json; the outputs are byte-identical (asserted by
// TestParallelOutputByteIdentical in internal/experiments).
func BenchmarkAllExperiments(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := coserve.NewExperimentContext()
				ctx.SetParallel(workers)
				outs, err := coserve.RunExperiments(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != len(coserve.Experiments()) {
					b.Fatalf("regenerated %d of %d experiments", len(outs), len(coserve.Experiments()))
				}
			}
		})
	}
}

// BenchmarkTaskA1 measures one full, uncached Task A1 simulation per
// system variant on the NUMA device and reports the achieved virtual
// throughput — the end-to-end cost of the headline experiment.
func BenchmarkTaskA1(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []core.Variant{core.Samba, core.CoServe} {
		variant := variant
		b.Run(variant.String(), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				g, c := core.DefaultExecutors(dev)
				cfg := core.Config{Device: dev, Variant: variant, GPUExecutors: g, CPUExecutors: c, Perf: perf}
				if variant == core.Samba {
					cfg.Alloc = core.SambaAllocation(dev, perf)
				} else {
					cfg.Alloc = core.CasualAllocation(dev, perf, g, c)
				}
				sys, err := core.NewSystem(cfg, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sys.RunTask(workload.TaskA1(board))
				if err != nil {
					b.Fatal(err)
				}
				tp = rep.Throughput
			}
			b.ReportMetric(tp, "img/s(virtual)")
		})
	}
}

// BenchmarkPoissonServe measures the open-loop serving path end to end:
// one System per iteration serving a Poisson stream through the
// controller, with SLO accounting on — the serving-layer overhead
// future PRs must not regress.
func BenchmarkPoissonServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 500 * time.Millisecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(cfg, board.Model)
		if err != nil {
			b.Fatal(err)
		}
		src, err := workload.Poisson{
			Name: "bench-poisson", Board: board, Rate: 40, N: 500, Seed: 99,
		}.NewSource()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Serve(src)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completions != 500 {
			b.Fatalf("completions = %d", rep.Completions)
		}
	}
}

// BenchmarkClusterServe measures the multi-node serving path end to
// end: one cluster per iteration (node construction, placement
// planning, shared-env simulation) serving a Poisson stream through the
// router. The 1-node case prices the cluster layer's overhead over a
// bare System; the 4-node case is the fleet path the serve-cluster
// experiment sweeps. Baseline in BENCH_cluster.json (`make
// bench-cluster` regenerates the measurement).
func BenchmarkClusterServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 500 * time.Millisecond,
	}
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := coserve.NewCluster(coserve.ClusterConfig{
					Nodes:     coserve.UniformNodes(nodes, node),
					Router:    cluster.Affinity{},
					Placement: cluster.UsageProportional{},
					SLO:       node.SLO,
				}, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				src, err := workload.Poisson{
					Name: "bench-cluster", Board: board, Rate: 40, N: 500, Seed: 99,
				}.NewSource()
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cl.Serve(src)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completions != 500 {
					b.Fatalf("completions = %d", rep.Completions)
				}
			}
		})
	}
}

// BenchmarkWarmRestartServe measures the warm path: the first stream
// pays system construction and pool initialization, then b.N
// consecutive streams reuse the loaded pools.
func BenchmarkWarmRestartServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
	}
	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RunTask(workload.Task{
		Name: "warmup", Board: board, N: 200,
		ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.RunTask(workload.Task{
			Name: "warm", Board: board, N: 200,
			ArrivalPeriod: workload.DefaultArrivalPeriod, Seed: int64(i + 2),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completions != 200 {
			b.Fatalf("completions = %d", rep.Completions)
		}
	}
}

// kernelHop is a pooled Message that re-posts itself one millisecond on
// until its hops run out: the shape of every timed protocol on the
// kernel.
type kernelHop struct {
	env  *sim.Env
	hops int
}

func (m *kernelHop) Deliver(at sim.Time) {
	if m.hops--; m.hops > 0 {
		m.env.PostMsg(at.Add(time.Millisecond), m)
	}
}

// BenchmarkSimKernel measures raw event throughput of the discrete-event
// kernel: four pooled messages each delivered 250 times, 1,000 events
// per op on a fresh Env.
func BenchmarkSimKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		for p := 0; p < 4; p++ {
			env.PostMsg(0, &kernelHop{env: env, hops: 250})
		}
		env.Run()
	}
}

// BenchmarkMinMaxAssign measures one dependency-aware assignment
// decision across 7 queues with realistic backlogs — the per-request
// scheduling cost of Figure 19.
func BenchmarkMinMaxAssign(b *testing.B) {
	env := sim.NewEnv()
	costs := sched.Costs{
		K:           func(*coe.Expert) time.Duration { return 2 * time.Millisecond },
		B:           func(*coe.Expert) time.Duration { return 5 * time.Millisecond },
		PredictLoad: func(*coe.Expert) time.Duration { return time.Second },
		IsLoaded:    func(coe.ExpertID) bool { return false },
	}
	qs := make([]*sched.Queue, 7)
	for i := range qs {
		qs[i] = sched.NewQueue(env, fmt.Sprintf("q%d", i), sched.ModeGrouped, costs)
		for j := 0; j < 40; j++ {
			e := &coe.Expert{ID: coe.ExpertID(i*100 + j%11), Arch: model.ResNet101}
			qs[i].Enqueue(e, coe.NewRequest(int64(j), 0, []coe.ExpertID{e.ID}))
		}
	}
	assigner := sched.MinMax{}
	e := &coe.Expert{ID: 999, Arch: model.ResNet101}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assigner.Pick(0, qs, e)
	}
}

// BenchmarkAffinityPick measures one residency-first routing decision
// across a warm 100-node fleet: BenchmarkFleetServe's nodes after
// usage-proportional placement, each holding its preloaded experts.
// Requests cycle through every expert of board A, so picks cover
// experts held by most of the fleet, by a few nodes, and by none (the
// least-loaded fallback). A residency probe is one read of the node's
// per-expert count, so the decision is O(nodes) with zero allocations.
func BenchmarkAffinityPick(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO:          500 * time.Millisecond,
		DisablePicks: true,
	}
	cl, err := coserve.NewCluster(coserve.ClusterConfig{
		Nodes:     coserve.UniformNodes(100, node),
		Router:    cluster.Affinity{},
		Placement: cluster.UsageProportional{},
		SLO:       node.SLO,
	}, board.Model)
	if err != nil {
		b.Fatal(err)
	}
	nodes := cl.Nodes()
	reqs := make([]*coe.Request, board.Model.NumExperts())
	for i := range reqs {
		reqs[i] = coe.NewRequest(int64(i), 0, []coe.ExpertID{coe.ExpertID(i)})
	}
	router := cluster.Affinity{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink = router.Pick(0, nodes, reqs[i%len(reqs)])
	}
}

// pickSink keeps BenchmarkAffinityPick's result live.
var pickSink int

// BenchmarkExecutorCycle measures one executor's steady-state cycle:
// enqueue a request for a resident expert, run its batch on the
// kernel, and hand the request to OnBatch. The executor is a kernel
// state machine, so the cycle is a few posted events with no goroutine
// handoff, and it allocates nothing: queue groups, gate waiter buffers
// and kernel events are all recycled.
func BenchmarkExecutorCycle(b *testing.B) {
	env := sim.NewEnv()
	dev := hw.NUMADevice()
	store := pool.NewStore(env, dev, 0)
	bld := coe.NewBuilder("cycle")
	id := bld.AddExpert("c", model.ResNet101, coe.Preliminary)
	bld.AddRule(0, coe.Rule{Classifier: id})
	m, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	e := m.Expert(id)
	pl := pool.New("gpu0", 2*e.WeightBytes(), store, memory.TierGPU, pool.LRU{}, env.Now, make([]int32, m.NumExperts()))
	pl.Preload(e)
	perf := model.Perf{
		Arch: e.Arch, K: model.KCoeff(e.Arch, dev.GPU), B: dev.GPU.LaunchOverhead,
		MaxBatch: 16, ActPerImage: model.ActBytesPerImage(e.Arch, dev.GPU),
	}
	q := sched.NewQueue(env, "gpu0", sched.ModeGrouped, sched.Costs{
		K:           func(*coe.Expert) time.Duration { return perf.K },
		B:           func(*coe.Expert) time.Duration { return perf.B },
		PredictLoad: func(e *coe.Expert) time.Duration { return store.PredictLoad(e, memory.TierGPU) },
		IsLoaded:    pl.IsLoaded,
	})
	served := 0
	ex := &executor.Executor{
		Name: "gpu0",
		Proc: executor.ProcProfile{
			Exec:        func(a model.Architecture, n int) time.Duration { return model.ExecLatency(a, dev.GPU, n) },
			ActPerImage: func(a model.Architecture) int64 { return model.ActBytesPerImage(a, dev.GPU) },
		},
		Queue:   q,
		Pool:    pl,
		Compute: sim.NewResource(env, "gpu/compute", 1),
		Acts:    memory.NewArena("gpu/acts", 1<<30),
		Perf:    func(*coe.Expert) model.Perf { return perf },
		Done:    func() bool { return false },
		OnBatch: func(sim.Time, *coe.Request) { served++ },
	}
	ex.Start(env)
	req := coe.NewRequest(0, 0, []coe.ExpertID{id})
	cycle := func() {
		q.Enqueue(e, req)
		env.RunUntil(env.Now().Add(time.Hour))
	}
	const warm = 4 // the launch event, and queue groups reaching the free list
	for i := 0; i < warm; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if served != warm+b.N || ex.Batches() != int64(served) {
		b.Fatalf("served %d requests in %d batches, want %d in %d", served, ex.Batches(), warm+b.N, warm+b.N)
	}
}

// BenchmarkGroupedEnqueue measures the queue arranging hot path: one
// merge into an existing group plus the gate notify, the per-request
// cost Enqueue pays after assignment.
func BenchmarkGroupedEnqueue(b *testing.B) {
	env := sim.NewEnv()
	costs := sched.Costs{
		K:           func(*coe.Expert) time.Duration { return 2 * time.Millisecond },
		B:           func(*coe.Expert) time.Duration { return 5 * time.Millisecond },
		PredictLoad: func(*coe.Expert) time.Duration { return time.Second },
		IsLoaded:    func(coe.ExpertID) bool { return false },
	}
	q := sched.NewQueue(env, "q", sched.ModeGrouped, costs)
	e := &coe.Expert{ID: 1, Arch: model.ResNet101}
	r := coe.NewRequest(0, 0, []coe.ExpertID{e.ID})
	q.Enqueue(e, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(e, r)
		// Drain periodically so the group's item slice stays at a
		// steady-state size instead of growing with b.N.
		if q.Len() >= 1024 {
			for q.Len() > 0 {
				q.TakeFromHead(512)
			}
		}
	}
}

// BenchmarkSummarize measures the single-sort latency summary over a
// 10k-sample stream — the per-report cost of every serving experiment.
func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 10000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Summarize(xs)
	}
}

// BenchmarkDepAwareEviction measures a two-stage victim selection over a
// pool holding ~60 experts.
func BenchmarkDepAwareEviction(b *testing.B) {
	env := sim.NewEnv()
	store := pool.NewStore(env, hw.NUMADevice(), 0)
	mb := coe.NewBuilder("bench")
	var ids []coe.ExpertID
	for i := 0; i < 60; i++ {
		role := coe.Preliminary
		if i%5 == 4 {
			role = coe.Subsequent
		}
		id := mb.AddExpert("e", model.ResNet101, role)
		ids = append(ids, id)
		if role == coe.Preliminary {
			mb.AddRule(i, coe.Rule{Classifier: id})
		}
	}
	m, err := mb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for i, e := range m.Experts() {
		e.UsageProb = float64(i%17) / 17
	}
	p := pool.New("bench", 61*model.ResNet101.WeightBytes(), store, 0, pool.DepAware{}, env.Now, make([]int32, m.NumExperts()))
	for _, id := range ids {
		p.Preload(m.Expert(id))
	}
	policy := pool.DepAware{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victims := policy.Victims(p, model.ResNet101.WeightBytes())
		if len(victims) == 0 {
			b.Fatal("no victims")
		}
	}
}

// BenchmarkWorkloadGeneration measures deterministic request-stream
// generation for Task A2 (3,500 requests).
func BenchmarkWorkloadGeneration(b *testing.B) {
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs, err := workload.TaskA2(board).Generate()
		if err != nil || len(reqs) != 3500 {
			b.Fatalf("generation failed: %v (%d)", err, len(reqs))
		}
	}
}

// BenchmarkProfiledMatrix measures the whole offline microbenchmark
// phase for one device.
func BenchmarkProfiledMatrix(b *testing.B) {
	dev := hw.UMADevice()
	for i := 0; i < b.N; i++ {
		if _, err := coserve.Profile(dev, coserve.EvalArchitectures()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetServe measures the fleet-scale hot path: a 100-node
// CoServe cluster in sketch-percentile mode serving an arena-backed
// Steady stream, picks recording off — every O(stream-length) data
// structure replaced by its O(1) counterpart. The two sub-benchmarks
// differ only in stream length (100k vs 1M requests at the same
// offered rate); because completions recycle their requests, drained
// scheduler groups recycle, and the sketch is fixed-size, memory grows
// far sublinearly across the 10× (construction dominates; what scales
// is per-expert-switch eviction bookkeeping, ~4 B/request). Those
// absolute numbers are the regression gate pinned in BENCH_fleet.json
// (`make bench-fleet` regenerates and checks it).
func BenchmarkFleetServe(b *testing.B) {
	const (
		fleetNodes = 100
		fleetRate  = 600.0 // ~72% of the fleet's measured capacity: loaded, not backlogged
	)
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO:          500 * time.Millisecond,
		Percentiles:  core.PercentilesSketch,
		DisablePicks: true,
	}
	run := func(b *testing.B, requests int, ic coserve.Interconnect) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := coserve.NewCluster(coserve.ClusterConfig{
				Nodes:        coserve.UniformNodes(fleetNodes, node),
				Router:       cluster.Affinity{},
				Placement:    cluster.UsageProportional{},
				SLO:          node.SLO,
				Percentiles:  core.PercentilesSketch,
				Interconnect: ic,
			}, board.Model)
			if err != nil {
				b.Fatal(err)
			}
			arena := coe.NewArena()
			src, err := workload.Steady{
				Name: "bench-fleet", Board: board,
				Rate: fleetRate, Seed: 20260807, Arena: arena,
			}.NewSource()
			if err != nil {
				b.Fatal(err)
			}
			horizon := time.Duration(float64(requests) / fleetRate * float64(time.Second))
			rep, err := cl.Serve(workload.Horizon(src, horizon))
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completions < int64(requests) {
				b.Fatalf("completions = %d, want >= %d", rep.Completions, requests)
			}
			if rep.LatencySketch == nil || rep.LatencySketch.Count() != rep.Completions {
				b.Fatal("fleet sketch missing or miscounted")
			}
			if free := arena.Free(); int64(free) >= rep.Completions/10 {
				b.Fatalf("arena free list %d not bounded by in-flight peak", free)
			}
		}
	}
	for _, requests := range []int{100_000, 1_000_000} {
		requests := requests
		b.Run(fmt.Sprintf("nodes=%d/requests=%d", fleetNodes, requests), func(b *testing.B) {
			run(b, requests, coserve.Interconnect{})
		})
	}
	// Interconnect row: the same fleet served over a minimal hop model
	// (100µs dispatch, 50µs intra-board for the first 16 nodes, 300µs
	// beyond — small against the 500ms SLO), which runs every request
	// through the timed offer/fold protocol on the lease ledger. Every
	// offer and completion ack crossing the wire is a pooled typed
	// message on one free list, so the row lands within a few percent
	// of the zero-latency allocations — what remains above it is the
	// lease ledger and the extra timed events, the modeled cost of
	// distribution.
	ic := coserve.Interconnect{
		Dispatch:   100 * time.Microsecond,
		IntraBoard: 50 * time.Microsecond,
		InterNode:  300 * time.Microsecond,
		BoardSize:  16,
	}
	b.Run(fmt.Sprintf("nodes=%d/requests=%d/interconnect", fleetNodes, 100_000), func(b *testing.B) {
		run(b, 100_000, ic)
	})
}

// BenchmarkChaosServe measures the fault-injected serving path: a
// 4-node cluster per iteration serving a Poisson stream with the fault
// plan, lease ledger, and (in the gray case) health scoring, breaker,
// and hedging all active. The failstop sub-benchmark prices the
// crash/redeliver machinery; the gray one prices the full mitigation
// stack against a fail-slow straggler. Absolute allocs/op and bytes/op
// are the regression gate pinned in BENCH_chaos.json (`make
// bench-chaos` regenerates and checks it) — the chaos layer must stay
// cheap enough that arming it is never a serving-path tax.
func BenchmarkChaosServe(b *testing.B) {
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		b.Fatal(err)
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO: 3 * time.Second,
	}
	cases := []struct {
		name   string
		plan   *coserve.FaultPlan
		health coserve.HealthConfig
		hedge  coserve.HedgeConfig
	}{
		{
			name: "faults=failstop",
			plan: &coserve.FaultPlan{Events: []coserve.FaultEvent{
				{At: 2 * time.Second, Node: 1, Kind: coserve.FaultCrash},
				{At: 4 * time.Second, Node: 1, Kind: coserve.FaultRecover},
				{At: 6 * time.Second, Node: 2, Kind: coserve.FaultDrain},
				{At: 9 * time.Second, Node: 2, Kind: coserve.FaultRecover},
			}},
		},
		{
			name: "faults=gray",
			plan: &coserve.FaultPlan{Events: []coserve.FaultEvent{
				{At: 2 * time.Second, Node: 1, Kind: coserve.FaultSlow, Factor: 150},
				{At: 20 * time.Second, Node: 1, Kind: coserve.FaultRecover},
			}},
			health: coserve.HealthConfig{Window: 500 * time.Millisecond, Breaker: true, Cooldown: 8, Probes: 3},
			hedge:  coserve.HedgeConfig{After: time.Second},
		},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := coserve.NewCluster(coserve.ClusterConfig{
					Nodes:     coserve.UniformNodes(4, node),
					Router:    cluster.Affinity{},
					Placement: cluster.Partition{},
					SLO:       node.SLO,
					Faults:    tc.plan,
					Health:    tc.health,
					Hedge:     tc.hedge,
				}, board.Model)
				if err != nil {
					b.Fatal(err)
				}
				src, err := workload.Poisson{
					Name: "bench-chaos", Board: board, Rate: 8, N: 240, Seed: 20260730,
				}.NewSource()
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cl.Serve(src)
				if err != nil {
					b.Fatal(err)
				}
				// Exactly-once at the end of every iteration: arrivals either
				// completed once or were terminally rejected on redelivery.
				if rep.Completions+rep.RedeliveredRejected != rep.N {
					b.Fatalf("%d completions + %d terminal rejections != %d arrivals",
						rep.Completions, rep.RedeliveredRejected, rep.N)
				}
			}
		})
	}
}

// TestBenchSanity keeps the bench harness honest under plain `go test`:
// the headline figure regenerates and contains every expected system.
func TestBenchSanity(t *testing.T) {
	out, err := coserve.RunExperiment(benchCtx, "fig13")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NUMA", "UMA", "A1", "B2"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig13 output missing %q", want)
		}
	}
	// The rendered ratios must parse as multi-x wins.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 2 && (fields[0] == "NUMA" || fields[0] == "UMA") {
			r := strings.TrimSuffix(fields[len(fields)-3], "×")
			ratio, err := strconv.ParseFloat(r, 64)
			if err != nil {
				t.Fatalf("unparseable ratio in %q", line)
			}
			if ratio < 2 {
				t.Errorf("ratio %v too small in %q", ratio, line)
			}
		}
	}
}
