package core

import (
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/workload"
)

// controlConfig assembles a CoServe casual config with control-plane
// knobs applied by the caller.
func controlConfig(t *testing.T, mutate func(*Config)) Config {
	t.Helper()
	dev := hw.NUMADevice()
	pm := perfFor(t, dev)
	g, c := DefaultExecutors(dev)
	cfg := Config{
		Device: dev, Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(dev, pm, g, c), Perf: pm,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// overloadSource offers far more load than CoServe casual can serve on
// the NUMA device — the regime admission control exists for.
func overloadSource(t *testing.T, board *workload.Board, n int, seed int64) workload.Source {
	t.Helper()
	return poissonFor(t, "overload", board, 400, n, seed)
}

// TestAcceptAllBitCompatible is the refactor's core guarantee: a System
// with the explicit accept-all policy behaves identically to one with
// no admission policy at all.
func TestAcceptAllBitCompatible(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func(mutate func(*Config)) *Report {
		s, err := NewSystem(controlConfig(t, mutate), board.Model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(poissonFor(t, "p", board, 100, 300, 17))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bare := run(nil)
	accept := run(func(c *Config) { c.Admission = control.AcceptAll{} })
	if bare.Throughput != accept.Throughput || bare.Makespan != accept.Makespan ||
		bare.Switches != accept.Switches || bare.Completions != accept.Completions {
		t.Errorf("accept-all diverged from nil policy: %v/%v/%d vs %v/%v/%d",
			bare.Throughput, bare.Makespan, bare.Switches,
			accept.Throughput, accept.Makespan, accept.Switches)
	}
	if len(bare.Picks) != len(accept.Picks) {
		t.Fatalf("pick counts differ: %d vs %d", len(bare.Picks), len(accept.Picks))
	}
	for i := range bare.Picks {
		if bare.Picks[i] != accept.Picks[i] {
			t.Fatalf("pick %d differs under accept-all", i)
		}
	}
	if accept.Rejected != 0 || accept.RejectionRate != 0 {
		t.Errorf("accept-all rejected %d requests", accept.Rejected)
	}
	if accept.Offered != accept.N {
		t.Errorf("accept-all offered %d != admitted %d", accept.Offered, accept.N)
	}
}

// TestBoundedQueueBoundsBacklog: under heavy overload the bounded-queue
// policy must reject and the observed backlog must respect the bound.
func TestBoundedQueueBoundsBacklog(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	policy, err := control.NewBoundedQueue(32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(controlConfig(t, func(c *Config) { c.Admission = policy }), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(overloadSource(t, board, 400, 23))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("no rejections under 10x overload with a 32-request bound")
	}
	if rep.Offered != 400 || rep.N+rep.Rejected != 400 {
		t.Errorf("conservation: offered %d, admitted %d, rejected %d", rep.Offered, rep.N, rep.Rejected)
	}
	if rep.Completions != rep.N {
		t.Errorf("admitted %d but completed %d", rep.N, rep.Completions)
	}
	// The bound gates admissions only: stage re-dispatches of in-flight
	// multi-stage requests can push the instantaneous backlog somewhat
	// past it (peak is sampled on every dispatch, re-dispatches
	// included), but it must stay O(bound), not O(offered).
	if rep.PeakQueued > 2*32 {
		t.Errorf("peak backlog %d not within 2x the bound 32", rep.PeakQueued)
	}
	if rep.RejectionRate <= 0 || rep.RejectionRate >= 1 {
		t.Errorf("rejection rate %v outside (0,1)", rep.RejectionRate)
	}
}

// TestRejectionPathTouchesNothing is the end-to-end isolation contract:
// a rejected request's only side effects are the rejection counters and
// one KindRejected trace event — no arrival, no assignment, no
// completion, no latency sample, no tenant latency aggregate.
func TestRejectionPathTouchesNothing(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	log := trace.New()
	policy, err := control.NewBoundedQueue(16)
	if err != nil {
		t.Fatal(err)
	}
	fast := poissonFor(t, "tenant-fast", board, 300, 300, 41)
	slow := poissonFor(t, "tenant-slow", board, 60, 60, 42)
	src, err := workload.Mix{Name: "mix", Tenants: []workload.Source{fast, slow}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(controlConfig(t, func(c *Config) {
		c.Admission = policy
		c.Trace = log
		c.SLO = time.Second
	}), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("overloaded mix saw no rejections; the test exercises nothing")
	}

	// Trace: one KindRejected per rejection, and rejected IDs appear in
	// no other event kind.
	rejected := map[int64]bool{}
	for _, ev := range log.Filter(trace.KindRejected) {
		rejected[ev.Request] = true
	}
	if int64(len(rejected)) != rep.Rejected {
		t.Errorf("%d distinct rejected IDs in trace, want %d", len(rejected), rep.Rejected)
	}
	for _, ev := range log.Events() {
		if ev.Kind != trace.KindRejected && rejected[ev.Request] &&
			(ev.Kind == trace.KindArrival || ev.Kind == trace.KindAssign || ev.Kind == trace.KindComplete) {
			t.Fatalf("rejected request %d appears in a %s event", ev.Request, ev.Kind)
		}
	}
	if got := log.Count(trace.KindArrival); int64(got) != rep.N {
		t.Errorf("%d arrival events for %d admitted requests", got, rep.N)
	}
	if got := log.Count(trace.KindComplete); int64(got) != rep.Completions {
		t.Errorf("%d completion events for %d completions", got, rep.Completions)
	}

	// Recorder: completions and latency samples count admitted requests
	// only.
	if rep.Completions != rep.N {
		t.Errorf("completions %d != admitted %d", rep.Completions, rep.N)
	}
	if rep.Latency.N != int(rep.Completions) {
		t.Errorf("%d latency samples for %d completions", rep.Latency.N, rep.Completions)
	}

	// Tenants: admitted + rejected accounts for every offered request;
	// latency slices only cover completions.
	var admitted, rejectedN, completed int64
	for _, ts := range rep.PerTenant {
		admitted += ts.Admitted
		rejectedN += ts.Rejected
		completed += ts.Completions
		if ts.Completions != ts.Admitted {
			t.Errorf("tenant %s: admitted %d != completed %d", ts.Name, ts.Admitted, ts.Completions)
		}
		if ts.Latency.N != int(ts.Completions) {
			t.Errorf("tenant %s: %d latency samples for %d completions", ts.Name, ts.Latency.N, ts.Completions)
		}
	}
	if admitted != rep.N || rejectedN != rep.Rejected || completed != rep.Completions {
		t.Errorf("tenant totals %d/%d/%d, want %d/%d/%d",
			admitted, rejectedN, completed, rep.N, rep.Rejected, rep.Completions)
	}
}

// TestTenantMapCleanedOnCompletion is the leak regression: the
// controller's in-flight tenant map must be empty once a stream
// completes — entries are deleted as requests finish, and rejected
// requests never enter it.
func TestTenantMapCleanedOnCompletion(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	policy, err := control.NewBoundedQueue(16)
	if err != nil {
		t.Fatal(err)
	}
	a := poissonFor(t, "tenant-a", board, 250, 250, 51)
	b := poissonFor(t, "tenant-b", board, 50, 50, 52)
	src, err := workload.Mix{Name: "mix", Tenants: []workload.Source{a, b}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(controlConfig(t, func(c *Config) { c.Admission = policy }), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("expected rejections to exercise the reject-then-never-complete path")
	}
	if n := len(s.ctrl.tenantOf); n != 0 {
		t.Errorf("tenantOf holds %d entries after the stream drained; completed and rejected requests must not linger", n)
	}
}

// TestTokenBucketShapesAdmission: the token bucket admits at most
// rate*duration + burst requests regardless of the offered load.
func TestTokenBucketShapesAdmission(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	policy, err := control.NewTokenBucket(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(controlConfig(t, func(c *Config) { c.Admission = policy }), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	// 400 requests at ~400/s: the stream spans about one second, so the
	// bucket admits roughly 20*1s + 10 ≈ 30 of the 400.
	rep, err := s.Serve(overloadSource(t, board, 400, 61))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("token bucket rejected nothing under overload")
	}
	if rep.N < 10 || rep.N > 80 {
		t.Errorf("token bucket admitted %d of 400 at 20/s over ~1s; want a few dozen", rep.N)
	}
	if rep.Completions != rep.N {
		t.Errorf("admitted %d but completed %d", rep.N, rep.Completions)
	}
}

// TestDeadlineShedProtectsAttainment: under overload, shedding requests
// predicted to miss keeps the admitted requests' SLO attainment far
// above the accept-all collapse.
func TestDeadlineShedProtectsAttainment(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	const slo = 500 * time.Millisecond
	run := func(mutate func(*Config)) *Report {
		s, err := NewSystem(controlConfig(t, func(c *Config) {
			c.SLO = slo
			if mutate != nil {
				mutate(c)
			}
		}), board.Model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(overloadSource(t, board, 400, 71))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	open := run(nil)
	policy, err := control.NewDeadlineShed(slo)
	if err != nil {
		t.Fatal(err)
	}
	shed := run(func(c *Config) { c.Admission = policy })
	if shed.Rejected == 0 {
		t.Fatal("deadline shedding rejected nothing under overload")
	}
	// The prediction is optimistic (later arrivals may merge into groups
	// ahead of an admitted request), so attainment does not reach 1 — but
	// it must sit far above the accept-all collapse (~0.005 here).
	if shed.SLOAttainment < 10*open.SLOAttainment {
		t.Errorf("shedding attainment %.3f not >= 10x accept-all %.3f",
			shed.SLOAttainment, open.SLOAttainment)
	}
	if shed.SLOAttainment < 0.2 {
		t.Errorf("shedding attainment %.3f below 0.2", shed.SLOAttainment)
	}
}

// TestServeRejectsUnboundedSource: an infinite steady-state source must
// be refused without a horizon and served normally with one.
func TestServeRejectsUnboundedSource(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	infinite, err := workload.Steady{Name: "steady", Board: board, Rate: 50, Seed: 81}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(infinite); err == nil {
		t.Fatal("unbounded source accepted without a horizon")
	}
	// A mix hiding an infinite tenant is just as unbounded.
	tenant, err := workload.Steady{Name: "steady", Board: board, Rate: 50, Seed: 82}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := workload.Mix{Name: "mix", Tenants: []workload.Source{tenant}}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(mixed); err == nil {
		t.Fatal("mix with an unbounded tenant accepted without a horizon")
	}
	// The refusal happens before any state changes: the system still
	// serves a bounded stream.
	bounded, err := workload.Steady{Name: "steady", Board: board, Rate: 50, Seed: 81}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(workload.Horizon(bounded, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 || rep.Completions != rep.N {
		t.Errorf("horizon stream: admitted %d, completed %d", rep.N, rep.Completions)
	}
}

// TestWindowedReportSeries: with a window configured, the report's
// series conserves every counter.
func TestWindowedReportSeries(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	policy, err := control.NewBoundedQueue(24)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(controlConfig(t, func(c *Config) {
		c.Admission = policy
		c.Window = 100 * time.Millisecond
	}), board.Model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Serve(overloadSource(t, board, 300, 91))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("no windowed series despite Config.Window")
	}
	var arr, comp, rej int64
	for _, w := range rep.Windows {
		arr += w.Arrivals
		comp += w.Completions
		rej += w.Rejections
	}
	if arr != rep.N || comp != rep.Completions || rej != rep.Rejected {
		t.Errorf("window sums %d/%d/%d, want %d/%d/%d",
			arr, comp, rej, rep.N, rep.Completions, rep.Rejected)
	}
}

// TestAutoscalerScalesWithLoad: a hysteresis autoscaler shrinks the
// active set on a trickle stream and grows it back under overload —
// deterministically.
func TestAutoscalerScalesWithLoad(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	scaler, err := control.NewHysteresisScaler(0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controlConfig(t, func(c *Config) { c.Autoscaler = scaler })
	s, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	g0, c0 := s.Active()
	if g0 != cfg.GPUExecutors || c0 != cfg.CPUExecutors {
		t.Fatalf("initial active set %dG+%dC, want full %dG+%dC", g0, c0, cfg.GPUExecutors, cfg.CPUExecutors)
	}
	// A long trickle: far below capacity, the scaler should shed
	// executors.
	trickle, err := s.Serve(poissonFor(t, "trickle", board, 2, 40, 101))
	if err != nil {
		t.Fatal(err)
	}
	if trickle.ActiveGPU >= cfg.GPUExecutors && trickle.ActiveCPU >= cfg.CPUExecutors {
		t.Errorf("trickle stream left the full topology active (%dG+%dC)", trickle.ActiveGPU, trickle.ActiveCPU)
	}
	if trickle.ActiveGPU < 1 {
		t.Errorf("active GPUs fell below the floor: %d", trickle.ActiveGPU)
	}
	if trickle.Completions != trickle.N {
		t.Errorf("scaled-down stream dropped work: %d of %d", trickle.Completions, trickle.N)
	}
	// The scaled-down topology persists into the next stream (the
	// between-streams decision), then overload grows it back.
	burst, err := s.Serve(overloadSource(t, board, 400, 102))
	if err != nil {
		t.Fatal(err)
	}
	if burst.ActiveGPU <= trickle.ActiveGPU && burst.ActiveCPU <= trickle.ActiveCPU {
		t.Errorf("overload did not grow the active set: %dG+%dC -> %dG+%dC",
			trickle.ActiveGPU, trickle.ActiveCPU, burst.ActiveGPU, burst.ActiveCPU)
	}
	if burst.Completions != burst.N {
		t.Errorf("scaled-up stream dropped work: %d of %d", burst.Completions, burst.N)
	}
}

func TestAutoscalerDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		scaler, err := control.NewHysteresisScaler(0.3, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystem(controlConfig(t, func(c *Config) { c.Autoscaler = scaler }), board.Model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(poissonFor(t, "p", board, 30, 200, 111))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Makespan != b.Makespan ||
		a.ActiveGPU != b.ActiveGPU || a.ActiveCPU != b.ActiveCPU {
		t.Errorf("autoscaled serve nondeterministic: %v/%v/%d/%d vs %v/%v/%d/%d",
			a.Throughput, a.Makespan, a.ActiveGPU, a.ActiveCPU,
			b.Throughput, b.Makespan, b.ActiveGPU, b.ActiveCPU)
	}
	// Committed values: the scaling loop's wakes must keep their event
	// slots, or the run drifts from these while staying self-consistent.
	if a.Throughput != 11.57762188286979 || a.Makespan != 17274704773 ||
		a.ActiveGPU != 3 || a.ActiveCPU != 1 || len(a.Windows) != 70 {
		t.Errorf("autoscaled serve = %v img/s, makespan %v, %dG+%dC, %d windows; want 11.57762188286979, 17.274704773s, 3G+1C, 70",
			a.Throughput, a.Makespan, a.ActiveGPU, a.ActiveCPU, len(a.Windows))
	}
}

func TestAutoscalerRejectsReplayConfig(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	scaler, err := control.NewHysteresisScaler(0.3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controlConfig(t, func(c *Config) {
		c.Autoscaler = scaler
		c.PreschedPicks = []int{0, 1}
	})
	if _, err := NewSystem(cfg, board.Model); err == nil {
		t.Error("autoscaler + pre-scheduled picks accepted")
	}
}
