package main

import (
	"fmt"
	"time"

	coserve "repro"
	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fleet workloads serve an open-loop Steady stream at 600 req/s
// from CoServe nodes on NUMA board A, scored against a 500 ms SLO. At
// 100 nodes the rate is about 72% of the fleet's capacity: loaded, not
// backlogged. This is BenchmarkFleetServe's configuration.
const (
	fleetRate = 600 // req/s
	fleetSLO  = 500 * time.Millisecond
)

// fleetSpec describes one fleet workload.
type fleetSpec struct {
	nodes        int
	requests     int // stream length at fleetRate
	interconnect cluster.Interconnect
	plan         []sim.FaultEvent
	health       cluster.HealthConfig
}

// fleetSteady runs on the classic kernel (no interconnect), where the
// router does most of the host work.
var fleetSteady = fleetSpec{nodes: 100, requests: 100_000}

// fleetFaults serves over BenchmarkFleetServe's interconnect, which
// engages the sharded kernel, under a fault script spread across the
// ~167 s stream: one drain/recover and one 150x fail-slow straggler,
// with health scoring and the breaker on.
//
// Crashes and hedging stay off, because the sharded kernel mishandles
// both. An admission fold that lands on the coordinator after its node
// crashed opens a lease on the dead node that nothing ever resolves, so
// Serve never returns (about one seed in 25 with two crashes). A hedge
// offer that lands after its lease resolved counts as wasted but never
// as fired, so the report's hedge accounting does not balance.
var fleetFaults = fleetSpec{
	nodes:    100,
	requests: 100_000,
	interconnect: cluster.Interconnect{
		Dispatch:   100 * time.Microsecond,
		IntraBoard: 50 * time.Microsecond,
		InterNode:  300 * time.Microsecond,
		BoardSize:  16,
	},
	plan: []sim.FaultEvent{
		{At: 90 * time.Second, Node: 63, Kind: sim.FaultDrain},
		{At: 110 * time.Second, Node: 63, Kind: sim.FaultRecover},
		{At: 120 * time.Second, Node: 88, Kind: sim.FaultSlow, Factor: 150},
		{At: 150 * time.Second, Node: 88, Kind: sim.FaultRecover},
	},
	health: cluster.HealthConfig{Window: 500 * time.Millisecond, Breaker: true, Probes: 3},
}

// runFleet sets up and serves one fleet stream.
func runFleet(spec fleetSpec, seed int64, tr *tracer) (*sample, error) {
	s := newSample()
	t0 := time.Now()
	setup := tr.begin(spanSetup)
	dev := hw.NUMADevice()
	board, err := workload.BoardA().Build()
	if err != nil {
		return nil, err
	}
	mi := tr.begin(spanProfilerMatrix)
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	tr.end(mi)
	if err != nil {
		return nil, err
	}
	g, c := core.DefaultExecutors(dev)
	node := core.Config{
		Device: dev, Variant: core.CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: core.CasualAllocation(dev, perf, g, c), Perf: perf,
		SLO:          fleetSLO,
		DisablePicks: true,
	}
	nodes := cluster.Uniform(spec.nodes, node)
	var router cluster.Router = cluster.Affinity{}
	var placement cluster.Placement = cluster.UsageProportional{}
	var traced *tracedRouter
	if tr != nil {
		policy, err := defaultPolicy(tr, node, board.Model)
		if err != nil {
			return nil, err
		}
		for i := range nodes {
			nodes[i].EvictPolicy = &tracedPolicy{inner: policy, t: tr, buf: tr.newBuf()}
		}
		traced = &tracedRouter{inner: router, t: tr, buf: tr.newBuf()}
		router = traced
		placement = tracedPlacement{inner: placement, t: tr}
	}
	var plan *sim.FaultPlan
	if len(spec.plan) > 0 {
		plan = &sim.FaultPlan{Events: spec.plan}
	}
	arena := coe.NewArena()
	ni := tr.begin(spanClusterNew)
	cl, err := cluster.New(cluster.Config{
		Nodes:        nodes,
		Router:       router,
		Placement:    placement,
		SLO:          fleetSLO,
		Percentiles:  core.PercentilesSketch,
		Faults:       plan,
		Arena:        arena,
		Health:       spec.health,
		Interconnect: spec.interconnect,
	}, board.Model)
	tr.end(ni)
	if err != nil {
		return nil, err
	}
	src, err := workload.Steady{
		Name: "fleet", Board: board, Rate: fleetRate, Seed: seed, Arena: arena,
	}.NewSource()
	if err != nil {
		return nil, err
	}
	src = workload.Horizon(src, time.Duration(spec.requests)*time.Second/fleetRate)
	if tr != nil {
		src = &tracedSource{inner: src, t: tr, buf: tr.newBuf()}
	}
	tr.end(setup)
	s.setup = time.Since(t0)

	var rep *cluster.Report
	si := tr.begin(spanServe)
	err = s.measure(func() (err error) {
		rep, err = cl.Serve(src)
		return err
	})
	tr.end(si)
	if err != nil {
		return nil, err
	}

	s.arrivals, s.completions = rep.N, rep.Completions
	s.check = checkFleet(spec, rep, arena)
	lat := rep.LatencySketch
	s.sim["sim_throughput_rps"] = rep.Throughput
	s.sim["sim_lat_p50_ms"] = lat.Quantile(0.50) * 1e3
	s.sim["slo_attainment"] = rep.SLOAttainment * float64(rep.Completions) / float64(rep.N)

	nodeReps := rep.PerNode
	s.layer["sim_lat_p99_ms"] = lat.Quantile(0.99) * 1e3
	s.layer["sim_lat_p99.99_ms"] = lat.Quantile(0.9999) * 1e3
	s.layer["cluster.imbalance"] = rep.Imbalance
	s.layer["cluster.breaker_trips"] = float64(rep.BreakerTrips)
	movement(s, nodeReps, rep.Completions)
	if traced != nil {
		s.layer["cluster.pick_resident_frac"] = ratio(float64(traced.resident), float64(traced.picks))
	}

	// Host-only fields do not belong in the digest of simulated
	// statistics; the sketch is reduced to its count, sum and quantiles.
	for _, r := range nodeReps {
		r.SchedPerOp = 0
		r.LatencySketch = nil
	}
	rep.LatencySketch = nil
	s.digest, err = digest(rep, sketchDigest(lat))
	return s, err
}

// checkFleet validates a fleet report. A fault-free fleet completes
// every arrival, counts each completion once in its latency sketch, and
// keeps the arena's free list bounded by the in-flight peak. Under
// faults every arrival completes or is terminally rejected exactly
// once, every fired hedge ends wasted or voided, and every planned fault
// is applied.
func checkFleet(spec fleetSpec, rep *cluster.Report, arena *coe.Arena) error {
	if len(spec.plan) == 0 {
		if rep.Completions != rep.N {
			return fmt.Errorf("%d completions of %d arrivals", rep.Completions, rep.N)
		}
		if rep.LatencySketch == nil || rep.LatencySketch.Count() != rep.Completions {
			return fmt.Errorf("fleet latency sketch missing or miscounted")
		}
		if free := arena.Free(); int64(free) >= rep.Completions/10 {
			return fmt.Errorf("arena free list %d not bounded by the in-flight peak", free)
		}
		return nil
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		return fmt.Errorf("%d completions + %d terminal rejections != %d arrivals",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
	if rep.HedgeWasted+rep.HedgesVoided != rep.HedgesFired {
		return fmt.Errorf("hedge accounting leaks: %d fired, %d wasted + %d voided",
			rep.HedgesFired, rep.HedgeWasted, rep.HedgesVoided)
	}
	if rep.Faults != len(spec.plan) {
		return fmt.Errorf("%d faults applied, plan has %d", rep.Faults, len(spec.plan))
	}
	return nil
}

// defaultPolicy reads the eviction policy a node configuration gets by
// default from a probe system, so the benchmark never restates the
// variant-to-policy mapping.
func defaultPolicy(tr *tracer, cfg core.Config, m *coe.Model) (pool.Policy, error) {
	ni := tr.begin(spanNewSystem)
	probe, err := core.NewSystem(cfg, m)
	tr.end(ni)
	if err != nil {
		return nil, err
	}
	return probe.Pools()[0].Policy(), nil
}

// movement records the expert-movement and executor per-layer metrics
// summed over a set of single-system reports.
func movement(s *sample, reps []*core.Report, completions int64) {
	var switches, evictions, hostHits, processed, batches int64
	var load, busy time.Duration
	var capacity float64 // executor-seconds available over each makespan
	for _, r := range reps {
		switches += r.Switches
		evictions += r.Evictions
		hostHits += r.HostHits
		for _, p := range r.PerPool {
			load += p.LoadTime
		}
		for _, e := range r.PerExecutor {
			processed += e.Processed
			batches += e.Batches
			busy += e.Busy
		}
		capacity += float64(len(r.PerExecutor)) * r.Makespan.Seconds()
	}
	kreq := float64(completions) / 1e3
	s.layer["pool.switches_per_kreq"] = float64(switches) / kreq
	s.layer["pool.evictions_per_kreq"] = float64(evictions) / kreq
	s.layer["pool.load_wait_s_per_kreq"] = load.Seconds() / kreq
	s.layer["xfer.host_hit_frac"] = ratio(float64(hostHits), float64(switches))
	s.layer["executor.mean_batch"] = ratio(float64(processed), float64(batches))
	s.layer["executor.busy_frac"] = ratio(busy.Seconds(), capacity)
}
