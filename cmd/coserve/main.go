// Command coserve runs the CoServe reproduction: single task runs,
// offline profiling, and regeneration of every table and figure from the
// paper's evaluation.
//
// Usage:
//
//	coserve list                         # what can be reproduced
//	coserve experiment fig13             # regenerate one figure
//	coserve experiment all               # regenerate everything, all cores
//	coserve experiment -parallel 1 all   # fully sequential run (same tables)
//	coserve experiment -cpuprofile cpu.out -memprofile mem.out fig13
//	                                     # profile a hot-path regression
//	coserve run -device numa -system coserve -task A1
//	coserve serve -arrival poisson -rate 40 -n 2000 -slo 500ms
//	coserve serve -board A+B -arrival mix -rate 4 -repeat 2
//	coserve serve -arrival steady -rate 40 -horizon 10s -slo 500ms -admit shed
//	                                     # overload: shed predicted SLO misses
//	coserve serve -admit bounded -queue-bound 32 -autoscale -window 250ms
//	coserve serve -nodes 4 -router affinity -placement usage -rate 40 -slo 500ms
//	                                     # cluster: 4 nodes, residency routing
//	coserve serve -nodes 4 -chaos "crash@2s:1,recover@3.5s:1,drain@6s:2"
//	                                     # chaos: crash/drain/recover nodes,
//	                                     # leases redeliver, nothing is lost
//	coserve serve -nodes 4 -chaos "slow@2s:1x40" -health-window 500ms -breaker -hedge-after 1s
//	                                     # gray failure: node 1 fails slow,
//	                                     # breaker quarantines it, hedges
//	                                     # rescue the trapped requests
//	coserve serve -nodes 4 -chaos-mtbf 5s -chaos-mttr 1s -window 1s -fleet-autoscale 12
//	                                     # generated MTBF faults + fleet scaling
//	coserve serve -nodes 4 -percentiles sketch -arrival steady -rate 40 -horizon 30s
//	                                     # long stream: O(1)-memory latency sketch
//	coserve serve -record trace.bin -n 500
//	coserve serve -arrival replay -trace trace.bin -repeat 2
//	                                     # capture, then replay bit-for-bit
//	coserve profile -device uma          # print the performance matrix
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	coserve "repro"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "experiment":
		return cmdExperiment(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: coserve <command> [flags]

commands:
  list         list reproducible tables and figures
  experiment   regenerate a figure/table by id, or "all"
               (-parallel N fans independent simulations across N workers;
               tables are byte-identical at every worker count — only
               fig19's wall-clock sched-cost cells vary run to run;
               -cpuprofile/-memprofile write pprof profiles of the run)
  run          run one task under one serving system
  serve        serve an arrival stream (poisson, fixed, bursty, mix,
               steady, replay) with SLOs, admission control, executor
               autoscaling, and multi-node clustering:
               -admit accept|bounded|token|shed|tenant-quota selects the
               admission policy (-queue-bound, -admit-rate/-admit-burst,
               -tenant-rate/-tenant-burst, -slo set its knobs),
               -autoscale resizes the active executor set on windowed
               utilization (-autoscale-reachable guards scale-downs
               against the working set), -arrival steady -horizon 10s
               serves an infinite steady-state stream bounded by a
               horizon, -record/-arrival replay -trace capture and
               replay arrival traces, and -nodes N -router R
               -placement P serves the stream across an N-node cluster
               (-nodes 1 is the plain single-node system; router and
               placement apply from 2 nodes up), -chaos / -chaos-mtbf
               inject node faults into the cluster — fail-stop
               crash/drain/recover (crashed nodes' requests redeliver
               under lease tracking, completions stay exactly-once) and
               gray slow/jitter/stall kinds that degrade service while
               the node stays Up — countered by -health-window
               (latency-scored node health), -breaker (quarantine +
               half-open probing), and -hedge-after (deadline-fired
               hedged redelivery, first completion wins),
               -cluster-admit puts an admission policy in front of the
               router, -fleet-autoscale R drains/resumes nodes to
               track the offered rate at R req/s per node (needs
               -window), and -interconnect d/i/x@b models front-end→
               node dispatch latency — every offer and completion ack
               becomes a timed event one hop away
  profile      run the offline profiler and print the performance matrix`)
}

func cmdList() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tpaper\tdescription")
	for _, e := range coserve.Experiments() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Paper, e.Desc)
	}
	return w.Flush()
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for independent simulations (1 = fully sequential; tables are byte-identical at every setting, except fig19's wall-clock sched-cost cells which vary between any two runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("experiment needs one id (or \"all\"); see coserve list")
	}
	if *parallel < 1 {
		return fmt.Errorf("parallel must be at least 1")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // material allocations only: flush garbage before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "coserve: writing heap profile:", err)
			}
			f.Close()
		}()
	}
	ctx := coserve.NewExperimentContext()
	ctx.SetParallel(*parallel)
	ids := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		ids = nil
		for _, e := range coserve.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	start := time.Now()
	outs, err := coserve.RunExperiments(ctx, ids)
	// Every experiment runs regardless of sibling failures; print the
	// tables that did regenerate before reporting what failed.
	for _, out := range outs {
		if out == "" {
			continue
		}
		fmt.Print(out)
		fmt.Println()
	}
	if err != nil {
		return err
	}
	fmt.Printf("(%d experiment(s) regenerated in %v on %d worker(s))\n",
		len(ids), time.Since(start).Round(time.Millisecond), ctx.Parallel())
	return nil
}

// systemsByName maps CLI names to variants.
func systemsByName() map[string]core.Variant {
	m := make(map[string]core.Variant)
	for _, v := range core.Variants() {
		m[v.String()] = v
	}
	return m
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	devName := fs.String("device", "numa", "device profile: numa or uma")
	sysName := fs.String("system", "coserve", "serving system variant")
	taskName := fs.String("task", "A1", "task: A1, A2, B1, B2")
	n := fs.Int("n", 0, "override request count (0 = task default)")
	perfFile := fs.String("perf", "", "load a persisted performance matrix instead of profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := hw.ByName(*devName)
	if err != nil {
		return err
	}
	variant, ok := systemsByName()[*sysName]
	if !ok {
		names := slices.Sorted(maps.Keys(systemsByName()))
		return fmt.Errorf("unknown system %q (known: %s)", *sysName, strings.Join(names, ", "))
	}

	spec := workload.BoardA()
	if strings.HasPrefix(*taskName, "B") {
		spec = workload.BoardB()
	}
	board, err := spec.Build()
	if err != nil {
		return err
	}
	var task workload.Task
	switch *taskName {
	case "A1":
		task = workload.TaskA1(board)
	case "A2":
		task = workload.TaskA2(board)
	case "B1":
		task = workload.TaskB1(board)
	case "B2":
		task = workload.TaskB2(board)
	default:
		return fmt.Errorf("unknown task %q", *taskName)
	}
	if *n > 0 {
		task.N = *n
	}

	var perf coserve.PerfMatrix
	if *perfFile != "" {
		f, err := os.Open(*perfFile)
		if err != nil {
			return err
		}
		perf, err = model.ReadPerfMatrix(f, coserve.EvalArchitectures())
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded performance matrix from %s\n", *perfFile)
	} else {
		fmt.Printf("profiling %s (offline phase)...\n", dev.Name)
		perf, err = coserve.Profile(dev, coserve.EvalArchitectures())
		if err != nil {
			return err
		}
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{Device: dev, Variant: variant, GPUExecutors: g, CPUExecutors: c, Perf: perf}
	cfg.Alloc = core.DefaultAllocation(variant, dev, perf, g, c)
	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		return err
	}
	fmt.Printf("running task %s (%d requests) on %s under %s...\n", task.Name, task.N, dev.Name, variant)
	start := time.Now()
	rep, err := sys.RunTask(task)
	if err != nil {
		return err
	}
	printReport(rep)
	fmt.Printf("(simulated in %v of wall time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdServe drives the streaming serving layer: it builds one System and
// serves the requested arrival process against it, optionally several
// consecutive times on warm pools.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	devName := fs.String("device", "numa", "device profile: numa or uma")
	sysName := fs.String("system", "coserve", "serving system variant")
	boardName := fs.String("board", "A", "board: A, B, or A+B (merged multi-tenant model)")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson, fixed, bursty, mix, steady, replay")
	rate := fs.Float64("rate", 40, "offered load in req/s (poisson, mix, steady)")
	period := fs.Duration("period", workload.DefaultArrivalPeriod, "interarrival period (fixed, bursty)")
	on := fs.Duration("on", 100*time.Millisecond, "burst ON window (bursty)")
	off := fs.Duration("off", 400*time.Millisecond, "burst OFF window (bursty)")
	n := fs.Int("n", 1000, "stream length in requests")
	horizon := fs.Duration("horizon", 10*time.Second, "virtual-time horizon bounding the infinite steady arrival process")
	slo := fs.Duration("slo", 0, "per-request latency objective (0 = none)")
	seed := fs.Int64("seed", 1, "stream seed")
	repeat := fs.Int("repeat", 1, "serve the stream this many consecutive times (warm restarts)")
	admit := fs.String("admit", "accept", "admission policy: accept, bounded, token, shed (needs -slo), tenant-quota")
	queueBound := fs.Int("queue-bound", 64, "backlog bound for -admit bounded")
	admitRate := fs.Float64("admit-rate", 20, "token refill rate in req/s for -admit token")
	admitBurst := fs.Float64("admit-burst", 10, "token burst for -admit token")
	tenantRate := fs.Float64("tenant-rate", 10, "per-tenant refill rate in req/s for -admit tenant-quota")
	tenantBurst := fs.Float64("tenant-burst", 5, "per-tenant token burst for -admit tenant-quota")
	autoscale := fs.Bool("autoscale", false, "autoscale the active executor set on windowed utilization (hysteresis 0.3/0.85)")
	reachable := fs.Bool("autoscale-reachable", false, "with -autoscale, refuse scale-downs whose surviving pools cannot hold the working set")
	window := fs.Duration("window", 0, "windowed-metrics interval and autoscale cadence (0 = default when autoscaling, else disabled)")
	percentiles := fs.String("percentiles", "exact", "latency percentile accounting: exact (store every sample) or sketch (O(1) mergeable sketch, ±1% values)")
	nodes := fs.Int("nodes", 1, "cluster size: serve across this many nodes sharing one simulation (1 = single-node system)")
	routerName := fs.String("router", "least-loaded", "cluster request router (with -nodes >= 2): least-loaded, affinity, predict")
	placementName := fs.String("placement", "mirror", "cluster expert placement (with -nodes >= 2): mirror, partition, usage")
	chaosSpec := fs.String("chaos", "", `scripted cluster fault schedule: comma-separated kind@offset:node events, e.g. "crash@2s:1,recover@3.5s:1,drain@6s:2"; gray kinds take a parameter after the node — "slow@2s:1x4" (4× service time), "jitter@2s:1x8" (×[1,8] per batch), "stall@2s:1x1.5s" (frozen 1.5s) (needs -nodes >= 2)`)
	chaosMTBF := fs.Duration("chaos-mtbf", 0, "generate an MTBF-style fault schedule: mean up time between crashes per node (needs -nodes >= 2; schedule horizon is -horizon)")
	chaosMTTR := fs.Duration("chaos-mttr", time.Second, "mean down time before recovery for -chaos-mtbf")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for -chaos-mtbf schedule generation")
	healthWindow := fs.Duration("health-window", 0, "score per-node health from windowed completion latency at this interval (0 = off; needs -nodes >= 2)")
	breakerOn := fs.Bool("breaker", false, "arm the health circuit breaker: quarantine nodes scoring < 0.5, probe half-open, reinstate >= 0.8 (needs -health-window)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge requests still leased after this deadline to another node; first completion wins, losers count as wasted work (0 = off; needs -nodes >= 2)")
	clusterAdmit := fs.String("cluster-admit", "", "cluster-level admission policy in front of the router: accept, bounded, token, shed (same knobs as -admit; empty = admit everything)")
	fleetScale := fs.Float64("fleet-autoscale", 0, "drain/resume cluster nodes to track the offered rate at this many req/s per node (0 = off; needs -window and -nodes >= 2)")
	interconnect := fs.String("interconnect", "", `cluster interconnect hop model: dispatch/intra-board/inter-node one-way latencies with an optional @board-size, e.g. "200us/100us/600us@2" (nodes past board-size pay the inter-node class); every offer and completion ack lands one hop after it is sent (needs -nodes >= 2; empty = zero hops)`)
	record := fs.String("record", "", "record the served arrival stream to this trace file (first round)")
	traceFile := fs.String("trace", "", "arrival trace file to serve for -arrival replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := hw.ByName(*devName)
	if err != nil {
		return err
	}
	variant, ok := systemsByName()[*sysName]
	if !ok {
		return fmt.Errorf("unknown system %q", *sysName)
	}
	if *repeat < 1 {
		return fmt.Errorf("repeat must be at least 1")
	}
	if *nodes < 1 {
		return fmt.Errorf("nodes must be at least 1")
	}
	if (*chaosSpec != "" || *chaosMTBF > 0 || *clusterAdmit != "" || *fleetScale > 0 ||
		*healthWindow > 0 || *hedgeAfter > 0 || *interconnect != "") && *nodes < 2 {
		return fmt.Errorf("-chaos, -chaos-mtbf, -cluster-admit, -fleet-autoscale, -health-window, -hedge-after, and -interconnect need a cluster (-nodes >= 2)")
	}
	ic, err := parseInterconnect(*interconnect)
	if err != nil {
		return err
	}
	if *breakerOn && *healthWindow <= 0 {
		return fmt.Errorf("-breaker needs -health-window (the scoring interval)")
	}
	if *chaosSpec != "" && *chaosMTBF > 0 {
		return fmt.Errorf("-chaos and -chaos-mtbf are mutually exclusive: script the schedule or generate it, not both")
	}
	if *fleetScale > 0 && *window <= 0 {
		return fmt.Errorf("-fleet-autoscale needs -window (the scaling interval)")
	}
	switch *arrival {
	case "poisson", "fixed", "bursty", "mix", "steady":
	case "replay":
		if *traceFile == "" {
			return fmt.Errorf("-arrival replay needs a -trace file")
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want poisson, fixed, bursty, mix, steady, replay)", *arrival)
	}
	if *admit == "shed" && *slo <= 0 {
		return fmt.Errorf("-admit shed needs a positive -slo objective")
	}
	var pmode coserve.PercentileMode
	switch *percentiles {
	case "exact":
		pmode = coserve.PercentilesExact
	case "sketch":
		pmode = coserve.PercentilesSketch
	default:
		return fmt.Errorf("unknown percentile mode %q (want exact or sketch)", *percentiles)
	}
	// Admission policies and autoscalers carry per-stream state, so every
	// node needs its own instances; newAdmission/newAutoscaler build them.
	newAdmission := func() (control.AdmissionPolicy, error) {
		return control.PolicyByName(*admit, control.PolicyOptions{
			QueueBound: *queueBound,
			Rate:       *admitRate, Burst: *admitBurst,
			Objective:  *slo,
			TenantRate: *tenantRate, TenantBurst: *tenantBurst,
		})
	}
	newAutoscaler := func() (control.Autoscaler, error) {
		if !*autoscale {
			return nil, nil
		}
		if *reachable {
			return control.NewReachableHysteresisScaler(0.3, 0.85)
		}
		return control.NewHysteresisScaler(0.3, 0.85)
	}
	admission, err := newAdmission()
	if err != nil {
		return err
	}

	// Resolve the board (merging A and B for the multi-tenant model).
	var board *workload.Board
	var views []*workload.Board
	switch strings.ToUpper(*boardName) {
	case "A", "B":
		spec := workload.BoardA()
		if strings.ToUpper(*boardName) == "B" {
			spec = workload.BoardB()
		}
		if board, err = spec.Build(); err != nil {
			return err
		}
	case "A+B", "AB":
		a, err := workload.BoardA().Build()
		if err != nil {
			return err
		}
		b, err := workload.BoardB().Build()
		if err != nil {
			return err
		}
		if board, views, err = workload.MergeBoards("board-a+b", []float64{1, 1}, a, b); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown board %q (want A, B, or A+B)", *boardName)
	}

	// An arrival trace replays against the model the board resolved to;
	// it is read once and re-replayed per round.
	var arrivalTrace *workload.ArrivalTrace
	if *arrival == "replay" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		arrivalTrace, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded arrival trace %q (%d arrivals) from %s\n",
			arrivalTrace.Name, len(arrivalTrace.Entries), *traceFile)
	}

	// newSource builds a fresh stream per serve round (sources are
	// single-use).
	newSource := func(round int) (workload.Source, error) {
		rseed := *seed + int64(round)*1000
		switch *arrival {
		case "replay":
			return arrivalTrace.Replay(board.Model)
		case "poisson":
			return workload.Poisson{Name: "poisson", Board: board, Rate: *rate, N: *n, Seed: rseed}.NewSource()
		case "fixed":
			task := workload.Task{Name: "fixed", Board: board, N: *n, ArrivalPeriod: *period, Seed: rseed}
			return task.Stream()
		case "bursty":
			return workload.Bursty{
				Name: "bursty", Board: board,
				Period: *period, On: *on, Off: *off, N: *n, Seed: rseed,
			}.NewSource()
		case "steady":
			// Infinite steady-state arrivals, terminated by the horizon.
			src, err := workload.Steady{
				Name: "steady", Board: board, Rate: *rate, Seed: rseed,
			}.NewSource()
			if err != nil {
				return nil, err
			}
			return workload.Horizon(src, *horizon), nil
		case "mix":
			// Two equal tenants: over the merged views for A+B, or two
			// streams on the same board otherwise.
			b1, b2 := board, board
			name1, name2 := "tenant-1", "tenant-2"
			if len(views) == 2 {
				b1, b2 = views[0], views[1]
				name1, name2 = "board-a", "board-b"
			}
			t1, err := workload.Poisson{Name: name1, Board: b1, Rate: *rate / 2, N: *n / 2, Seed: rseed}.NewSource()
			if err != nil {
				return nil, err
			}
			t2, err := workload.Poisson{Name: name2, Board: b2, Rate: *rate / 2, N: *n - *n/2, Seed: rseed + 1}.NewSource()
			if err != nil {
				return nil, err
			}
			return workload.Mix{Name: "mix", Tenants: []workload.Source{t1, t2}}.NewSource()
		default:
			return nil, fmt.Errorf("unknown arrival process %q (want poisson, fixed, bursty, mix)", *arrival)
		}
	}

	fmt.Printf("profiling %s (offline phase)...\n", dev.Name)
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		return err
	}
	g, c := core.DefaultExecutors(dev)
	cfg := core.Config{
		Device: dev, Variant: variant,
		GPUExecutors: g, CPUExecutors: c, Perf: perf, SLO: *slo,
		Admission: admission, Window: *window, Percentiles: pmode,
	}
	if cfg.Autoscaler, err = newAutoscaler(); err != nil {
		return err
	}
	cfg.Alloc = core.DefaultAllocation(variant, dev, perf, g, c)

	// saveTrace writes the recorded arrival log after a served round.
	saveTrace := func(rec *workload.RecordingSource) error {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Trace().Write(f); err != nil {
			return err
		}
		fmt.Printf("arrival trace (%d arrivals) recorded to %s\n", len(rec.Trace().Entries), *record)
		return nil
	}

	length := fmt.Sprintf("%d requests", *n)
	switch *arrival {
	case "steady":
		length = fmt.Sprintf("%v horizon at %g req/s", *horizon, *rate)
	case "replay":
		length = fmt.Sprintf("%d replayed arrivals", len(arrivalTrace.Entries))
	}

	// serveRounds drives the repeat loop over any serve function.
	serveRounds := func(where string, serve func(src workload.Source) error) error {
		for round := 0; round < *repeat; round++ {
			src, err := newSource(round)
			if err != nil {
				return err
			}
			var rec *workload.RecordingSource
			if *record != "" && round == 0 {
				rec = workload.Record(src)
				src = rec
			}
			warmth := "cold pools"
			if round > 0 {
				warmth = "warm pools"
			}
			fmt.Printf("serving %s stream %d/%d (%s, %s, admit %s) on %s...\n",
				*arrival, round+1, *repeat, length, warmth, admission.Name(), where)
			start := time.Now()
			if err := serve(src); err != nil {
				return err
			}
			fmt.Printf("(simulated in %v of wall time)\n\n", time.Since(start).Round(time.Millisecond))
			if rec != nil {
				if err := saveTrace(rec); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if *nodes > 1 {
		// Cluster path: N copies of the node config, each with its own
		// control-plane instances, behind the requested router/placement.
		router, err := coserve.ClusterRouterByName(*routerName)
		if err != nil {
			return err
		}
		placement, err := coserve.ClusterPlacementByName(*placementName)
		if err != nil {
			return err
		}
		nodeCfgs := make([]core.Config, *nodes)
		for i := range nodeCfgs {
			nc := cfg
			if nc.Admission, err = newAdmission(); err != nil {
				return err
			}
			if nc.Autoscaler, err = newAutoscaler(); err != nil {
				return err
			}
			nodeCfgs[i] = nc
		}
		var plan *coserve.FaultPlan
		switch {
		case *chaosSpec != "":
			if plan, err = parseFaultPlan(*chaosSpec); err != nil {
				return err
			}
		case *chaosMTBF > 0:
			if plan, err = coserve.GenerateFaultPlan(*nodes, *chaosMTBF, *chaosMTTR, *horizon, *chaosSeed); err != nil {
				return err
			}
			fmt.Printf("generated MTBF fault schedule: %d events over %v (mtbf %v, mttr %v, seed %d)\n",
				len(plan.Events), *horizon, *chaosMTBF, *chaosMTTR, *chaosSeed)
		}
		var fleetAdmission control.AdmissionPolicy
		if *clusterAdmit != "" {
			fleetAdmission, err = control.PolicyByName(*clusterAdmit, control.PolicyOptions{
				QueueBound: *queueBound,
				Rate:       *admitRate, Burst: *admitBurst,
				Objective: *slo,
			})
			if err != nil {
				return err
			}
		}
		var fleetScaler coserve.FleetAutoscaler
		if *fleetScale > 0 {
			if fleetScaler, err = coserve.NewRateFleetScaler(*fleetScale); err != nil {
				return err
			}
		}
		cl, err := coserve.NewCluster(coserve.ClusterConfig{
			Nodes: nodeCfgs, Router: router, Placement: placement,
			SLO: *slo, Window: *window, Percentiles: pmode,
			Faults: plan, Admission: fleetAdmission, Autoscaler: fleetScaler,
			Health:       coserve.HealthConfig{Window: *healthWindow, Breaker: *breakerOn},
			Hedge:        coserve.HedgeConfig{After: *hedgeAfter},
			Interconnect: ic,
		}, board.Model)
		if err != nil {
			return err
		}
		where := fmt.Sprintf("%d×%s under %s (router %s, placement %s)",
			*nodes, dev.Name, variant, router.Name(), placement.Name())
		if plan != nil && !plan.Empty() {
			where += fmt.Sprintf(", %d faults scheduled", len(plan.Events))
		}
		return serveRounds(where, func(src workload.Source) error {
			rep, err := cl.Serve(src)
			if err != nil {
				return err
			}
			printClusterReport(rep)
			return nil
		})
	}

	sys, err := core.NewSystem(cfg, board.Model)
	if err != nil {
		return err
	}
	return serveRounds(fmt.Sprintf("%s under %s", dev.Name, variant), func(src workload.Source) error {
		rep, err := sys.Serve(src)
		if err != nil {
			return err
		}
		printReport(rep)
		return nil
	})
}

// parseInterconnect parses the -interconnect hop-model syntax:
// dispatch/intra-board/inter-node one-way latencies with an optional
// @board-size suffix, e.g. "200us/100us/600us@2". An empty spec returns
// the zero model (zero hops: every offer and ack lands at once). The
// cluster validates the assembled model (non-negative hops, a positive
// hop to every node) when it is configured.
func parseInterconnect(spec string) (coserve.Interconnect, error) {
	var ic coserve.Interconnect
	if spec == "" {
		return ic, nil
	}
	spec, boardStr, hasBoard := strings.Cut(spec, "@")
	parts := strings.Split(spec, "/")
	if len(parts) != 3 {
		return ic, fmt.Errorf("bad -interconnect %q: want dispatch/intra-board/inter-node durations, e.g. 200us/100us/600us@2", spec)
	}
	for i, dst := range []*time.Duration{&ic.Dispatch, &ic.IntraBoard, &ic.InterNode} {
		d, err := time.ParseDuration(strings.TrimSpace(parts[i]))
		if err != nil {
			return ic, fmt.Errorf("bad -interconnect hop %q: %w", parts[i], err)
		}
		*dst = d
	}
	if hasBoard {
		n, err := strconv.Atoi(strings.TrimSpace(boardStr))
		if err != nil || n < 1 {
			return ic, fmt.Errorf("bad -interconnect board size %q: want a positive node count", boardStr)
		}
		ic.BoardSize = n
	}
	return ic, nil
}

// parseFaultPlan parses the -chaos schedule syntax: comma-separated
// kind@offset:node events, e.g. "crash@2s:1,recover@3.5s:1,drain@6s:2".
// The gray kinds take a parameter after the node, separated by 'x':
// "slow@2s:1x4" multiplies node 1's service time by 4 from 2s on,
// "jitter@2s:1x8" inflates each batch by a seeded factor in [1, 8], and
// "stall@2s:1x1.5s" freezes the node for 1.5s. Every field must parse
// whole: trailing text is an error. The cluster validates the assembled
// plan (event ordering, node range, and the per-node
// lifecycle state machine) when it is configured.
func parseFaultPlan(spec string) (*coserve.FaultPlan, error) {
	plan := &coserve.FaultPlan{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(tok, "@")
		if !ok {
			return nil, fmt.Errorf("bad -chaos event %q: want kind@offset:node", tok)
		}
		var kind coserve.FaultKind
		switch kindStr {
		case "crash":
			kind = coserve.FaultCrash
		case "drain":
			kind = coserve.FaultDrain
		case "recover":
			kind = coserve.FaultRecover
		case "slow":
			kind = coserve.FaultSlow
		case "jitter":
			kind = coserve.FaultJitter
		case "stall":
			kind = coserve.FaultStall
		default:
			return nil, fmt.Errorf("bad -chaos event %q: unknown kind %q (want crash, drain, recover, slow, jitter, stall)", tok, kindStr)
		}
		offStr, nodeStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("bad -chaos event %q: want kind@offset:node", tok)
		}
		off, err := time.ParseDuration(offStr)
		if err != nil {
			return nil, fmt.Errorf("bad -chaos event %q: %v", tok, err)
		}
		ev := coserve.FaultEvent{At: off, Kind: kind}
		// Gray kinds carry a parameter after the node: nodexPARAM, where
		// PARAM is a multiplier (slow, jitter) or a duration (stall).
		nodeStr, param, hasParam := strings.Cut(nodeStr, "x")
		switch kind {
		case coserve.FaultSlow, coserve.FaultJitter:
			if !hasParam {
				return nil, fmt.Errorf("bad -chaos event %q: %s needs a factor, e.g. %s@2s:1x4", tok, kindStr, kindStr)
			}
			if ev.Factor, err = strconv.ParseFloat(param, 64); err != nil {
				return nil, fmt.Errorf("bad -chaos event %q: factor %q is not a number", tok, param)
			}
		case coserve.FaultStall:
			if !hasParam {
				return nil, fmt.Errorf("bad -chaos event %q: stall needs a duration, e.g. stall@2s:1x1.5s", tok)
			}
			if ev.For, err = time.ParseDuration(param); err != nil {
				return nil, fmt.Errorf("bad -chaos event %q: %v", tok, err)
			}
		default:
			if hasParam {
				return nil, fmt.Errorf("bad -chaos event %q: %s takes no parameter", tok, kindStr)
			}
		}
		if ev.Node, err = strconv.Atoi(nodeStr); err != nil {
			return nil, fmt.Errorf("bad -chaos event %q: node %q is not an integer", tok, nodeStr)
		}
		plan.Events = append(plan.Events, ev)
	}
	if plan.Empty() {
		return nil, fmt.Errorf("-chaos %q contains no events", spec)
	}
	return plan, nil
}

// printClusterReport renders a fleet report: the cluster-wide summary
// followed by one row per node.
func printClusterReport(r *coserve.ClusterReport) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "cluster\t%d nodes, router %s, placement %s\n", r.Nodes, r.Router, r.Placement)
	fmt.Fprintf(w, "stream\t%s (%d requests)\n", r.Stream, r.N)
	if r.Rejected > 0 {
		fmt.Fprintf(w, "admission\t%d offered, %d rejected (%.1f%%)\n", r.Offered, r.Rejected, 100*r.RejectionRate)
	}
	fmt.Fprintf(w, "throughput\t%.2f img/s (fleet)\n", r.Throughput)
	fmt.Fprintf(w, "makespan\t%.1f s (virtual)\n", r.Makespan.Seconds())
	fmt.Fprintf(w, "expert switches\t%d (%d from SSD, %d from host)\n", r.Switches, r.SSDLoads, r.HostHits)
	fmt.Fprintf(w, "latency p50/p95/p99\t%.2fs / %.2fs / %.2fs\n", r.Latency.P50, r.Latency.P95, r.Latency.P99)
	if r.SLO > 0 {
		fmt.Fprintf(w, "slo attainment\t%.1f%% within %v\n", 100*r.SLOAttainment, r.SLO)
	}
	fmt.Fprintf(w, "imbalance\t%.2f (max/mean routed)\n", r.Imbalance)
	if r.Faults > 0 {
		fmt.Fprintf(w, "faults\t%d applied (%d crashes, %d drains, %d recoveries)\n",
			r.Faults, r.Crashes, r.Drains, r.Recoveries)
		fmt.Fprintf(w, "leases\t%d voided by crashes, %d redelivered, %d rejected on redelivery, peak %d parked\n",
			r.LostLeases, r.Redelivered, r.RedeliveredRejected, r.PendingPeak)
		if r.FailoverMax > 0 {
			fmt.Fprintf(w, "failover\t%.3fs mean / %.3fs max (lease void to redelivered completion)\n",
				r.FailoverMean.Seconds(), r.FailoverMax.Seconds())
		}
		if r.Slows+r.Jitters+r.Stalls > 0 {
			fmt.Fprintf(w, "gray faults\t%d slow, %d jitter, %d stall (nodes stayed Up throughout)\n",
				r.Slows, r.Jitters, r.Stalls)
		}
	}
	if r.Bounced > 0 || r.DupAcks > 0 {
		fmt.Fprintf(w, "interconnect\t%d offers bounced off non-Up nodes, %d completion acks outran by redelivery\n",
			r.Bounced, r.DupAcks)
	}
	if r.BreakerTrips > 0 || r.BreakerReinstates > 0 || r.ProbesSent > 0 || r.BreakerBypasses > 0 {
		fmt.Fprintf(w, "breaker\t%d trips, %d reinstates, %d probes, %d bypasses\n",
			r.BreakerTrips, r.BreakerReinstates, r.ProbesSent, r.BreakerBypasses)
	}
	if r.HedgesFired > 0 || r.HedgeRetries > 0 || r.HedgeRejected > 0 {
		fmt.Fprintf(w, "hedges\t%d fired, %d wins, %d wasted, %d voided, %d promoted, %d rejected, %d retries\n",
			r.HedgesFired, r.HedgeWins, r.HedgeWasted, r.HedgesVoided, r.HedgePromoted, r.HedgeRejected, r.HedgeRetries)
	}
	if r.ScaleUps > 0 || r.ScaleDowns > 0 {
		fmt.Fprintf(w, "fleet scaling\t%d scale-downs, %d scale-ups\n", r.ScaleDowns, r.ScaleUps)
	}
	for _, d := range r.TimeToDrain {
		fmt.Fprintf(w, "drained\t%s in %.3fs\n", d.Node, d.Took.Seconds())
	}
	if len(r.FinalStates) > 0 {
		states := make([]string, len(r.FinalStates))
		for i, st := range r.FinalStates {
			states[i] = st.String()
		}
		fmt.Fprintf(w, "final states\t%s\n", strings.Join(states, ", "))
	}
	w.Flush()
	fmt.Println("per node:")
	wn := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(wn, "  node\trouted\tadmitted\trejected\tcompleted\tdropped\tswitches\tp95\tactive")
	for i, nr := range r.PerNode {
		fmt.Fprintf(wn, "  node%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2fs\t%dG+%dC\n",
			i, r.Routed[i], nr.N, nr.Rejected, nr.Completions, nr.Dropped, nr.Switches,
			nr.Latency.P95, nr.ActiveGPU, nr.ActiveCPU)
	}
	wn.Flush()
}

func printReport(r *core.Report) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\t%s\n", r.System)
	fmt.Fprintf(w, "device\t%s\n", r.Device)
	fmt.Fprintf(w, "task\t%s (%d requests)\n", r.Task, r.N)
	if r.Rejected > 0 {
		fmt.Fprintf(w, "admission\t%d offered, %d rejected (%.1f%%), peak queue %d\n",
			r.Offered, r.Rejected, 100*r.RejectionRate, r.PeakQueued)
	}
	fmt.Fprintf(w, "throughput\t%.2f img/s\n", r.Throughput)
	fmt.Fprintf(w, "makespan\t%.1f s (virtual)\n", r.Makespan.Seconds())
	fmt.Fprintf(w, "expert switches\t%d (%d from SSD, %d from host)\n", r.Switches, r.SSDLoads, r.HostHits)
	fmt.Fprintf(w, "evictions\t%d\n", r.Evictions)
	fmt.Fprintf(w, "latency p50/p95/p99\t%.2fs / %.2fs / %.2fs\n", r.Latency.P50, r.Latency.P95, r.Latency.P99)
	if r.SLO > 0 {
		fmt.Fprintf(w, "slo attainment\t%.1f%% within %v\n", 100*r.SLOAttainment, r.SLO)
	}
	fmt.Fprintf(w, "sched cost\t%v per decision (%d decisions)\n", r.SchedPerOp, r.SchedOps)
	fmt.Fprintf(w, "active executors\t%d GPU, %d CPU\n", r.ActiveGPU, r.ActiveCPU)
	w.Flush()
	if len(r.PerTenant) > 0 {
		fmt.Println("per tenant:")
		wt := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(wt, "  name\tadmitted\trejected\tcompleted\tp50\tp95\tslo attainment")
		for _, ts := range r.PerTenant {
			attain := "n/a"
			if r.SLO > 0 {
				attain = fmt.Sprintf("%.1f%%", 100*ts.SLOAttainment)
			}
			fmt.Fprintf(wt, "  %s\t%d\t%d\t%d\t%.2fs\t%.2fs\t%s\n",
				ts.Name, ts.Admitted, ts.Rejected, ts.Completions, ts.Latency.P50, ts.Latency.P95, attain)
		}
		wt.Flush()
	}
	if len(r.Windows) > 0 {
		fmt.Println("windows:")
		ww := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ww, "  start\tarrivals\tcompletions\trejections\tmean latency")
		for _, win := range r.Windows {
			fmt.Fprintf(ww, "  %v\t%d\t%d\t%d\t%.3fs\n",
				win.Start, win.Arrivals, win.Completions, win.Rejections, win.MeanLatency())
		}
		ww.Flush()
	}
	fmt.Println("per executor:")
	we := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(we, "  name\tprocessed\tbatches\tbusy")
	for _, ex := range r.PerExecutor {
		fmt.Fprintf(we, "  %s\t%d\t%d\t%.1fs\n", ex.Name, ex.Processed, ex.Batches, ex.Busy.Seconds())
	}
	we.Flush()
	fmt.Println("per pool:")
	wp := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(wp, "  name\tresident\tswitches\tssd\thost\tevictions\tload time")
	for _, pl := range r.PerPool {
		fmt.Fprintf(wp, "  %s\t%d\t%d\t%d\t%d\t%d\t%.1fs\n",
			pl.Name, pl.Loaded, pl.Switches, pl.SSDLoads, pl.HostHits, pl.Evictions, pl.LoadTime.Seconds())
	}
	wp.Flush()
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	devName := fs.String("device", "numa", "device profile: numa or uma")
	out := fs.String("o", "", "write the performance matrix as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := hw.ByName(*devName)
	if err != nil {
		return err
	}
	perf, err := coserve.Profile(dev, coserve.EvalArchitectures())
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := perf.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("performance matrix written to %s\n", *out)
	}
	fmt.Printf("performance matrix for %s (offline phase, §4.5):\n", dev.Name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "architecture\tproc\tK\tB\tmax batch\tact/image\tload(ssd)\tload(host)")
	for _, arch := range coserve.EvalArchitectures() {
		for _, kind := range []hw.ProcKind{hw.GPU, hw.CPU} {
			p, ok := perf.Lookup(arch.Name, kind)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%d\t%d MB\t%v\t%v\n",
				arch.Name, kind,
				p.K.Round(10*time.Microsecond), p.B.Round(10*time.Microsecond),
				p.MaxBatch, p.ActPerImage>>20,
				p.LoadSSD.Round(time.Millisecond), p.LoadHost.Round(time.Millisecond))
		}
	}
	return w.Flush()
}
