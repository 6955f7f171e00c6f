package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/workload"
)

// arenaPoisson builds a Poisson stream leasing its requests from the
// arena.
func arenaPoisson(t *testing.T, board *workload.Board, a *coe.Arena, rate float64, n int, seed int64) workload.Source {
	t.Helper()
	src, err := workload.Poisson{
		Name: "arena-poisson", Board: board, Rate: rate, N: n, Seed: seed, Arena: a,
	}.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestServeArenaMatchesPlain: an arena-backed stream must serve to a
// report identical to the plain-allocation stream — same seeds, same
// chains, same virtual timeline. The arena changes where request
// objects come from, never what they contain.
func TestServeArenaMatchesPlain(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plainSys := buildSystem(t, hw.NUMADevice(), CoServe, board)
	plain, err := plainSys.Serve(poissonFor(t, "arena-poisson", board, 80, 400, 31))
	if err != nil {
		t.Fatal(err)
	}
	arena := coe.NewArena()
	arenaSys := buildSystem(t, hw.NUMADevice(), CoServe, board)
	leased, err := arenaSys.Serve(arenaPoisson(t, board, arena, 80, 400, 31))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completions != leased.Completions || plain.Throughput != leased.Throughput ||
		plain.Makespan != leased.Makespan || plain.Switches != leased.Switches {
		t.Errorf("arena stream diverged: %d/%v/%v/%d vs plain %d/%v/%v/%d",
			leased.Completions, leased.Throughput, leased.Makespan, leased.Switches,
			plain.Completions, plain.Throughput, plain.Makespan, plain.Switches)
	}
	if plain.Latency != leased.Latency {
		t.Errorf("arena latency summary %+v != plain %+v", leased.Latency, plain.Latency)
	}
}

// TestServeArenaRecyclingInvariant is the recycling-hazard test: with
// requests recycled at completion while the stream is still running,
// every completion must still be traced exactly once with a distinct
// request ID — if a request were reused while the trace or a window
// sample still referenced it, IDs would collide or counts would drift.
// The free list must stay bounded by the in-flight high-water mark,
// not grow with the stream.
func TestServeArenaRecyclingInvariant(t *testing.T) {
	const n = 600
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	log := trace.New()
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
		Trace: log, Window: 250 * time.Millisecond,
	}
	s, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	arena := coe.NewArena()
	// Underloaded (device capacity is ~12 img/s), so in-flight — and
	// with it the free list — stays far below the stream length.
	rep, err := s.Serve(arenaPoisson(t, board, arena, 8, n, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != n {
		t.Fatalf("completions = %d, want %d", rep.Completions, n)
	}
	seen := make(map[int64]int)
	completes := 0
	for _, ev := range log.Events() {
		if ev.Kind == trace.KindComplete {
			completes++
			seen[ev.Request]++
		}
	}
	if completes != n {
		t.Errorf("trace has %d completion events, want %d", completes, n)
	}
	for id, k := range seen {
		if k != 1 {
			t.Errorf("request %d completed %d times — a recycled object was reused while referenced", id, k)
		}
	}
	if arena.Leases() != n {
		t.Errorf("arena leased %d requests, want %d", arena.Leases(), n)
	}
	if arena.Reuses() == 0 {
		t.Error("arena never reused a request — recycling is not wired")
	}
	if arena.Free() > n/2 {
		t.Errorf("free list holds %d requests — recycling should bound it near the in-flight peak, not the stream length", arena.Free())
	}
	// The windowed series must cover all completions even though the
	// request objects were recycled as it was being built.
	var windowed int64
	for _, w := range rep.Windows {
		windowed += w.Completions
	}
	if windowed != n {
		t.Errorf("windowed series counts %d completions, want %d", windowed, n)
	}
}

// TestServeArenaRejectionRecycles: requests dropped by admission
// control are recycled too — the rejection path is a lease's other
// legal exit. Offered = leases, and the stream still completes.
func TestServeArenaRejectionRecycles(t *testing.T) {
	const n = 400
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	bq, err := control.NewBoundedQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
		Admission: bq,
	}
	s, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	arena := coe.NewArena()
	// Far over capacity so the bounded queue rejects a good share.
	rep, err := s.Serve(arenaPoisson(t, board, arena, 500, n, 17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("test needs rejections to exercise the rejection recycle path")
	}
	if rep.Offered != int64(n) || arena.Leases() != n {
		t.Fatalf("offered/leases = %d/%d, want %d/%d", rep.Offered, arena.Leases(), n, n)
	}
	if rep.Completions != rep.N {
		t.Fatalf("admitted %d but completed %d", rep.N, rep.Completions)
	}
	// Every request exited through completion or rejection, so the free
	// list must hold far more than the in-flight peak would explain if
	// rejections leaked (they don't — both exits recycle).
	if arena.Reuses() == 0 {
		t.Error("no reuses despite heavy rejection — rejected requests are not recycled")
	}
}

// TestServeArenaAcrossWarmRestart: one arena serves two consecutive
// streams through a warm restart of one env; the second stream draws
// nearly everything from the free list.
func TestServeArenaAcrossWarmRestart(t *testing.T) {
	const n = 300
	board := boardFor(t, workload.BoardA())
	s := buildSystem(t, hw.NUMADevice(), CoServe, board)
	arena := coe.NewArena()
	if _, err := s.Serve(arenaPoisson(t, board, arena, 80, n, 41)); err != nil {
		t.Fatal(err)
	}
	firstReuses := arena.Reuses()
	rep, err := s.Serve(arenaPoisson(t, board, arena, 80, n, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != n {
		t.Fatalf("second stream completed %d, want %d", rep.Completions, n)
	}
	secondReuses := arena.Reuses() - firstReuses
	if secondReuses < n/2 {
		t.Errorf("second stream reused only %d of %d leases — the pool did not survive the warm restart", secondReuses, n)
	}
}

// TestServeSketchMatchesExactWithinBound: the same stream served in
// exact and sketch mode must agree on everything exact (counts, mean,
// min, max, makespan) and on percentiles within the sketch's
// documented relative accuracy. This is the documented-equivalence
// contract behind leaving goldens in exact mode.
func TestServeSketchMatchesExactWithinBound(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	serve := func(mode PercentileMode) *Report {
		pm := perfFor(t, hw.NUMADevice())
		g, c := DefaultExecutors(hw.NUMADevice())
		cfg := Config{
			Device: hw.NUMADevice(), Variant: CoServe,
			GPUExecutors: g, CPUExecutors: c,
			Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
			SLO: 500 * time.Millisecond, Percentiles: mode,
		}
		s, err := NewSystem(cfg, board.Model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(poissonFor(t, "sketch-vs-exact", board, 40, 500, 4242))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exact := serve(PercentilesExact)
	sketch := serve(PercentilesSketch)
	if exact.LatencySketch != nil {
		t.Error("exact mode must not carry a latency sketch")
	}
	if sketch.LatencySketch == nil {
		t.Fatal("sketch mode must carry the latency sketch")
	}
	if exact.Completions != sketch.Completions || exact.Makespan != sketch.Makespan ||
		exact.Throughput != sketch.Throughput {
		t.Fatalf("modes diverged on exact quantities: %d/%v/%v vs %d/%v/%v",
			exact.Completions, exact.Makespan, exact.Throughput,
			sketch.Completions, sketch.Makespan, sketch.Throughput)
	}
	el, sl := exact.Latency, sketch.Latency
	if el.N != sl.N || el.Min != sl.Min || el.Max != sl.Max {
		t.Fatalf("N/Min/Max must stay exact in sketch mode: %d/%v/%v vs %d/%v/%v",
			sl.N, sl.Min, sl.Max, el.N, el.Min, el.Max)
	}
	if math.Abs(sl.Mean-el.Mean) > 1e-9*el.Mean {
		t.Errorf("mean must stay exact: %v vs %v", sl.Mean, el.Mean)
	}
	alpha := sketch.LatencySketch.RelativeAccuracy()
	// The exact summary interpolates between closest ranks while the
	// sketch answers at the closest rank itself; allow one rank-gap of
	// slack on top of the documented relative bound.
	tol := 2.5 * alpha
	for _, pair := range [][2]float64{{sl.P50, el.P50}, {sl.P95, el.P95}, {sl.P99, el.P99}} {
		if math.Abs(pair[0]-pair[1]) > tol*pair[1] {
			t.Errorf("sketch percentile %v deviates more than %.1f%% from exact %v",
				pair[0], 100*tol, pair[1])
		}
	}
	if math.Abs(sketch.SLOAttainment-exact.SLOAttainment) > 0.02 {
		t.Errorf("attainment %v deviates from exact %v", sketch.SLOAttainment, exact.SLOAttainment)
	}
	// Per-request samples are not retained in sketch mode, and picks
	// recording can be disabled independently — both are what make the
	// fleet path O(1); exact mode keeps them for goldens and replay.
	if len(exact.Picks) == 0 {
		t.Error("exact mode must keep recording picks")
	}
}

// TestDisablePicks: a system with DisablePicks set must serve
// identically but record no assignment sequence.
func TestDisablePicks(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	pm := perfFor(t, hw.NUMADevice())
	g, c := DefaultExecutors(hw.NUMADevice())
	cfg := Config{
		Device: hw.NUMADevice(), Variant: CoServe,
		GPUExecutors: g, CPUExecutors: c,
		Alloc: CasualAllocation(hw.NUMADevice(), pm, g, c), Perf: pm,
	}
	base, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Serve(poissonFor(t, "picks", board, 60, 250, 13))
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePicks = true
	lean, err := NewSystem(cfg, board.Model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lean.Serve(poissonFor(t, "picks", board, 60, 250, 13))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Picks) != 0 {
		t.Errorf("DisablePicks still recorded %d picks", len(got.Picks))
	}
	if len(want.Picks) == 0 {
		t.Fatal("baseline run recorded no picks")
	}
	if got.Throughput != want.Throughput || got.Makespan != want.Makespan ||
		got.Completions != want.Completions || got.Latency != want.Latency {
		t.Error("DisablePicks changed serving behavior")
	}
}
