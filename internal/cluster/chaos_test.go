package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosCluster builds an n-node CoServe fleet with the given fault plan
// under affinity routing and usage-proportional placement.
func chaosCluster(t testing.TB, n int, plan *sim.FaultPlan) *Cluster {
	t.Helper()
	board := boardFor(t, workload.BoardA())
	return buildCluster(t, Config{
		Nodes:     Uniform(n, nodeConfig(t, hw.NUMADevice())),
		Router:    Affinity{},
		Placement: UsageProportional{},
		SLO:       time.Second,
		Faults:    plan,
	}, board.Model)
}

// normalize blanks the wall-clock scheduling-cost averages — the only
// nondeterministic report fields — so reports compare exactly.
func normalize(rep *Report) *Report {
	out := *rep
	out.PerNode = make([]*core.Report, len(rep.PerNode))
	for i, nr := range rep.PerNode {
		cp := *nr
		cp.SchedPerOp = 0
		out.PerNode[i] = &cp
	}
	return &out
}

// TestChaosCrashRedeliversEveryLease is the tentpole's core contract: a
// crash voids the node's outstanding leases, every one is redelivered
// to a surviving node, and completion accounting stays exactly-once —
// all arrivals complete, none twice, despite the node losing its
// entire backlog.
func TestChaosCrashRedeliversEveryLease(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := chaosCluster(t, 3, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}})
	rep, err := cl.Serve(poissonFor(t, board, 30, 120, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 120 || rep.Completions != 120 {
		t.Errorf("arrivals/completions = %d/%d, want 120/120", rep.N, rep.Completions)
	}
	if rep.LostLeases == 0 {
		t.Fatal("crash at 1s into a 30 req/s stream voided no leases; the test exercises nothing")
	}
	if rep.Redelivered != rep.LostLeases {
		t.Errorf("redelivered %d of %d voided leases", rep.Redelivered, rep.LostLeases)
	}
	if rep.Dropped != rep.LostLeases {
		t.Errorf("node-side drops %d != voided leases %d", rep.Dropped, rep.LostLeases)
	}
	if rep.Crashes != 1 || rep.Recoveries != 1 || rep.Faults != 2 {
		t.Errorf("fault counts = %d crash / %d recover / %d total, want 1/1/2", rep.Crashes, rep.Recoveries, rep.Faults)
	}
	if rep.FailoverMax <= 0 || rep.FailoverMean <= 0 || rep.FailoverMean > rep.FailoverMax {
		t.Errorf("failover latency mean %v / max %v inconsistent", rep.FailoverMean, rep.FailoverMax)
	}
	if len(rep.FinalStates) != 3 {
		t.Fatalf("FinalStates = %v", rep.FinalStates)
	}
	for i, st := range rep.FinalStates {
		if st != core.NodeUp {
			t.Errorf("node%d ended %v, want up", i, st)
		}
	}
	// The crashed node's own stream closed exactly: completed + dropped
	// covers everything it admitted.
	nr := rep.PerNode[1]
	if nr.Dropped == 0 || nr.Completions+nr.Dropped != nr.N {
		t.Errorf("node1: %d completions + %d dropped != %d admitted", nr.Completions, nr.Dropped, nr.N)
	}
	// Every executor run — the crashed epoch's and the restart's — has
	// exited: none is left queued on a gate.
	for _, n := range cl.Nodes() {
		for _, q := range n.sys.Queues() {
			if w := q.Gate().Waiting(); w != 0 {
				t.Errorf("%s: %d waiters left on the queue gate after Serve", q.Name(), w)
			}
		}
	}
}

// TestChaosZeroFaultByteIdentical pins the acceptance bar that fault
// machinery is free when unused: a cluster configured with an empty
// fault plan serves byte-identically to one with no plan at all.
func TestChaosZeroFaultByteIdentical(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func(plan *sim.FaultPlan) *Report {
		cl := buildCluster(t, Config{
			Nodes:     Uniform(3, nodeConfig(t, hw.NUMADevice())),
			Router:    Affinity{},
			Placement: UsageProportional{},
			SLO:       time.Second,
			Faults:    plan,
		}, board.Model)
		rep, err := cl.Serve(poissonFor(t, board, 40, 200, 13))
		if err != nil {
			t.Fatal(err)
		}
		return normalize(rep)
	}
	plain, empty := run(nil), run(&sim.FaultPlan{})
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty fault plan changed the serve:\nnil:   %+v\nempty: %+v", plain, empty)
	}
}

// TestChaosDeterministic: identical chaos configurations serve
// identical streams identically — faults, redeliveries, drains and all.
func TestChaosDeterministic(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		cl := chaosCluster(t, 3, &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: 800 * time.Millisecond, Node: 2, Kind: sim.FaultDrain},
			{At: 1200 * time.Millisecond, Node: 0, Kind: sim.FaultCrash},
			{At: 2 * time.Second, Node: 0, Kind: sim.FaultRecover},
			{At: 2500 * time.Millisecond, Node: 2, Kind: sim.FaultRecover},
		}})
		rep, err := cl.Serve(poissonFor(t, board, 30, 150, 17))
		if err != nil {
			t.Fatal(err)
		}
		return normalize(rep)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic chaos serve:\n%+v\nvs\n%+v", a, b)
	}
}

// TestChaosBlackoutParksAndFlushes: with every node down, arrivals and
// voided leases park in the redelivery queue instead of being lost, and
// the first recovery flushes them — completions still cover every
// arrival.
func TestChaosBlackoutParksAndFlushes(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := chaosCluster(t, 2, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 0, Kind: sim.FaultCrash},
		{At: 1100 * time.Millisecond, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 0, Kind: sim.FaultRecover},
		{At: 2500 * time.Millisecond, Node: 1, Kind: sim.FaultRecover},
	}})
	rep, err := cl.Serve(poissonFor(t, board, 24, 96, 21))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingPeak == 0 {
		t.Fatal("a 900ms total blackout under 24 req/s parked nothing; the test exercises nothing")
	}
	if rep.N != 96 || rep.Completions != 96 {
		t.Errorf("arrivals/completions = %d/%d, want 96/96", rep.N, rep.Completions)
	}
}

// TestChaosBlackoutAtStreamEndFailsLoudly: when no node ever recovers,
// Serve must refuse to report rather than silently lose the parked
// work.
func TestChaosBlackoutAtStreamEndFailsLoudly(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := chaosCluster(t, 2, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 0, Kind: sim.FaultCrash},
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
	}})
	_, err := cl.Serve(poissonFor(t, board, 24, 96, 21))
	if err == nil || !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("total permanent blackout reported success (err = %v)", err)
	}
}

// TestChaosDrainFinishesInFlight: a drained node stops receiving work,
// finishes what it holds, and the drain duration is recorded.
func TestChaosDrainFinishesInFlight(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cl := chaosCluster(t, 2, &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultDrain},
	}})
	rep, err := cl.Serve(poissonFor(t, board, 20, 100, 25))
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 100 || rep.Completions != 100 {
		t.Errorf("arrivals/completions = %d/%d, want 100/100", rep.N, rep.Completions)
	}
	if rep.Drains != 1 || rep.LostLeases != 0 || rep.Dropped != 0 {
		t.Errorf("drain lost work: %d drains, %d voided, %d dropped", rep.Drains, rep.LostLeases, rep.Dropped)
	}
	if len(rep.TimeToDrain) != 1 || rep.TimeToDrain[0].Node != "node1" || rep.TimeToDrain[0].Took < 0 {
		t.Fatalf("TimeToDrain = %v, want one record for node1", rep.TimeToDrain)
	}
	if rep.FinalStates[1] != core.NodeDraining {
		t.Errorf("node1 ended %v, want draining (never resumed)", rep.FinalStates[1])
	}
	// Everything node1 was holding at the drain completed on node1; the
	// drain routed no new work there afterwards.
	if rep.PerNode[1].Completions != rep.PerNode[1].N {
		t.Errorf("node1 completed %d of %d admitted", rep.PerNode[1].Completions, rep.PerNode[1].N)
	}
}

// TestChaosClusterAdmission: the cluster-level policy runs in front of
// the router; its rejections are terminal and the exactly-once
// invariant still holds under faults.
func TestChaosClusterAdmission(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	bq, err := control.NewBoundedQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, Config{
		Nodes:     Uniform(2, nodeConfig(t, hw.NUMADevice())),
		SLO:       time.Second,
		Admission: bq,
		Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
			{At: time.Second, Node: 1, Kind: sim.FaultCrash},
			{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
		}},
	}, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, 40, 160, 29))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("bounded-4 cluster admission under 40 req/s rejected nothing; the test exercises nothing")
	}
	if rep.Completions != rep.N {
		t.Errorf("completions %d != admitted arrivals %d", rep.Completions, rep.N)
	}
	if rep.Offered != rep.N+rep.Rejected {
		t.Errorf("offered %d != %d admitted + %d rejected", rep.Offered, rep.N, rep.Rejected)
	}
}

// TestFleetAutoscalerDrainsIdleCapacity: a rate-driven fleet scaler
// under a stream one node can carry drains the excess nodes, loses
// nothing, and records the scale-downs.
func TestFleetAutoscalerDrainsIdleCapacity(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	scaler, err := NewRateFleetScaler(12)
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, Config{
		Nodes:      Uniform(4, nodeConfig(t, hw.NUMADevice())),
		SLO:        time.Second,
		Window:     500 * time.Millisecond,
		Autoscaler: scaler,
	}, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, 6, 60, 33))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleDowns != 3 || rep.ScaleUps != 0 {
		t.Errorf("scale-downs/ups = %d/%d, want 3/0 (6 req/s needs one 12 req/s node)", rep.ScaleDowns, rep.ScaleUps)
	}
	if rep.Completions != rep.N || rep.N != 60 {
		t.Errorf("arrivals/completions = %d/%d, want 60/60", rep.N, rep.Completions)
	}
	up := 0
	for _, st := range rep.FinalStates {
		if st == core.NodeUp {
			up++
		}
	}
	if up == 0 {
		t.Error("autoscaler drained the whole fleet")
	}
	// Committed drain records: the idle nodes drain at the instant the
	// scaler drains them.
	wantDrains := []DrainRecord{{Node: "node1"}, {Node: "node2"}, {Node: "node3"}}
	if !reflect.DeepEqual(rep.TimeToDrain, wantDrains) {
		t.Errorf("drains = %v, want %v", rep.TimeToDrain, wantDrains)
	}
}

// TestAutoscalerRequiresWindow: the scaling interval is the windowed
// series interval; a scaler without one is a config error.
func TestAutoscalerRequiresWindow(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	scaler, err := NewRateFleetScaler(12)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Nodes:      Uniform(2, nodeConfig(t, hw.NUMADevice())),
		Autoscaler: scaler,
	}, board.Model)
	if err == nil || !strings.Contains(err.Error(), "Window") {
		t.Fatalf("autoscaler without Window accepted (err = %v)", err)
	}
}

// TestRateFleetScalerHysteresis: scale-up is immediate, scale-down only
// through the hysteresis band.
func TestRateFleetScalerHysteresis(t *testing.T) {
	s := &RateFleetScaler{PerNode: 10, ShrinkAt: 0.7}
	w := func(arrivals int64) metrics.Window { return metrics.Window{Arrivals: arrivals} }
	sec := time.Second
	if got := s.Scale(0, w(35), sec, 2, 8); got != 4 {
		t.Errorf("35 req/s on 2 nodes: scale = %d, want 4 (immediate scale-up)", got)
	}
	// 25 req/s needs 3 nodes; shrinking from 4 requires rate < 0.7*3*10 = 21.
	if got := s.Scale(0, w(25), sec, 4, 8); got != 4 {
		t.Errorf("25 req/s on 4 nodes: scale = %d, want 4 (hold inside hysteresis band)", got)
	}
	if got := s.Scale(0, w(13), sec, 4, 8); got != 2 {
		t.Errorf("13 req/s on 4 nodes: scale = %d, want 2 (clears the band: 13 < 0.7*2*10)", got)
	}
	if got := s.Scale(0, w(0), sec, 3, 8); got != 1 {
		t.Errorf("idle fleet: scale = %d, want 1 (never zero)", got)
	}
	if _, err := NewRateFleetScaler(0); err == nil {
		t.Error("zero per-node rate accepted")
	}

	// The band edge is strict: shrinking from 4 to 2 requires rate <
	// 0.7*2*10 = 14, so exactly 14 req/s holds and one request less
	// clears it.
	if got := s.Scale(0, w(14), sec, 4, 8); got != 4 {
		t.Errorf("14 req/s on 4 nodes: scale = %d, want 4 (exact band edge holds)", got)
	}
	if got := s.Scale(0, w(13), sec, 4, 8); got != 2 {
		t.Errorf("13 req/s on 4 nodes: scale = %d, want 2 (one below the edge shrinks)", got)
	}
	// need == active is the fixed point: no move in either direction.
	if got := s.Scale(0, w(40), sec, 4, 8); got != 4 {
		t.Errorf("40 req/s on 4 nodes: scale = %d, want 4 (need == active holds)", got)
	}

	// A crash shrinks the Up count out from under the scaler; the same
	// offered rate that held 4 nodes must demand them back immediately —
	// scale-up has no hysteresis.
	if got := s.Scale(0, w(35), sec, 3, 8); got != 4 {
		t.Errorf("35 req/s on 3 nodes after a crash: scale = %d, want 4 (immediate re-grow)", got)
	}

	// No flapping: a constant rate inside the band maps every (rate,
	// active) pair to the same count, so repeated windows are a fixed
	// point rather than an up/down oscillation.
	active := 4
	for i := 0; i < 5; i++ {
		next := s.Scale(0, w(27), sec, active, 8)
		if i > 0 && next != active {
			t.Fatalf("window %d: constant 27 req/s moved the fleet %d -> %d", i, active, next)
		}
		active = next
	}
	if active != 4 {
		t.Errorf("constant 27 req/s settled at %d nodes, want 4 (26 req/s holds: need 3 but 27 >= 0.7*3*10)", active)
	}

	// Out-of-range ShrinkAt falls back to the 0.7 default rather than
	// disabling the band.
	loose := &RateFleetScaler{PerNode: 10, ShrinkAt: 7}
	if got := loose.Scale(0, w(25), sec, 4, 8); got != 4 {
		t.Errorf("ShrinkAt 7: scale = %d, want 4 (defaulted band still holds)", got)
	}
	// A zero interval window carries no rate information; hold.
	if got := s.Scale(0, w(100), 0, 3, 8); got != 3 {
		t.Errorf("zero interval: scale = %d, want 3 (hold)", got)
	}
}

// TestChaosArenaRedeliverySafe: with the workload source and the
// redelivery path sharing one arena, a crash's recycle-then-redeliver
// churn must not corrupt any live request — every arrival still
// completes exactly once and the run stays deterministic. (The CI race
// job runs this under -race.)
func TestChaosArenaRedeliverySafe(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	run := func() *Report {
		arena := coe.NewArena()
		cl := buildCluster(t, Config{
			Nodes:     Uniform(3, nodeConfig(t, hw.NUMADevice())),
			Router:    Affinity{},
			Placement: UsageProportional{},
			SLO:       time.Second,
			Arena:     arena,
			Faults: &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: time.Second, Node: 0, Kind: sim.FaultCrash},
				{At: 1800 * time.Millisecond, Node: 0, Kind: sim.FaultRecover},
				{At: 2200 * time.Millisecond, Node: 2, Kind: sim.FaultCrash},
				{At: 3 * time.Second, Node: 2, Kind: sim.FaultRecover},
			}},
		}, board.Model)
		src, err := workload.Poisson{
			Name: "chaos-arena", Board: board, Rate: 30, N: 150, Seed: 37, Arena: arena,
		}.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Serve(src)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run()
	if a.N != 150 || a.Completions != 150 {
		t.Errorf("arrivals/completions = %d/%d, want 150/150", a.N, a.Completions)
	}
	if a.LostLeases == 0 {
		t.Fatal("two crashes voided nothing; the test exercises nothing")
	}
	b := run()
	if !reflect.DeepEqual(normalize(a), normalize(b)) {
		t.Error("arena-backed chaos serve is nondeterministic")
	}
}

// TestGeneratedPlanServes: an MTBF-generated schedule (crashes always
// paired with recovers) drives a full serve to exactly-once completion.
func TestGeneratedPlanServes(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan, err := sim.GenerateFaultPlan(3, 2*time.Second, 400*time.Millisecond, 4*time.Second, 99)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Skip("seed generated no faults inside the horizon")
	}
	cl := chaosCluster(t, 3, plan)
	rep, err := cl.Serve(poissonFor(t, board, 30, 120, 41))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != rep.N || rep.N != 120 {
		t.Errorf("arrivals/completions = %d/%d, want 120/120", rep.N, rep.Completions)
	}
}

// emptyStream is a source that yields nothing — the join-unwind
// regression fixture.
type emptyStream struct{}

func (emptyStream) Name() string                        { return "empty" }
func (emptyStream) Next() (workload.TimedRequest, bool) { return workload.TimedRequest{}, false }

// TestJoinFailureUnwindsJoinedNodes is the regression test for the
// partial-join leak: when node k's JoinStream fails, nodes 0..k-1 had
// already joined and must be closed out — not left serving a stream
// nobody will ever close. A replay node (one-stream-only) makes the
// second Serve fail at node1, after node0 has joined.
func TestJoinFailureUnwindsJoinedNodes(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	cfgA := nodeConfig(t, hw.NUMADevice())
	cfgB := nodeConfig(t, hw.NUMADevice())
	cfgB.PreschedPicks = []int{} // non-nil: a replay system, one stream only
	cl := buildCluster(t, Config{Nodes: []core.Config{cfgA, cfgB}}, board.Model)

	if _, err := cl.Serve(emptyStream{}); err != nil {
		t.Fatalf("first (empty) stream: %v", err)
	}
	_, err := cl.Serve(emptyStream{})
	if err == nil || !strings.Contains(err.Error(), "node1") {
		t.Fatalf("second stream err = %v, want node1 join failure", err)
	}
	if cl.nodes[0].sys.Serving() {
		t.Error("node0 left serving after node1's join failed; the unwind did not close it")
	}
	// The cluster itself stays poisoned — a partial join is not servable.
	if _, err := cl.Serve(emptyStream{}); err == nil {
		t.Error("poisoned cluster accepted a third stream")
	}
}
