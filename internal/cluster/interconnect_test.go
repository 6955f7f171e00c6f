package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testInterconnect is the hop model the interconnect tests run under: a
// split fleet with the first two nodes on the front end's board and a
// slower class beyond it, so per-node latencies genuinely differ.
var testInterconnect = Interconnect{
	Dispatch:   200 * time.Microsecond,
	IntraBoard: 100 * time.Microsecond,
	InterNode:  600 * time.Microsecond,
	BoardSize:  2,
}

// icConfig builds a 4-node fleet over the hop model with the given
// lifecycle knobs.
func icConfig(t testing.TB, plan *sim.FaultPlan, health HealthConfig, hedge HedgeConfig) Config {
	t.Helper()
	return Config{
		Nodes:        Uniform(4, nodeConfig(t, hw.NUMADevice())),
		Router:       Affinity{},
		Placement:    Partition{},
		SLO:          3 * time.Second,
		Faults:       plan,
		Health:       health,
		Hedge:        hedge,
		Interconnect: testInterconnect,
	}
}

// serveOverInterconnect runs one stream over the fleet and returns the
// normalized report.
func serveOverInterconnect(t *testing.T, cfg Config, rate float64, n int, seed int64) *Report {
	t.Helper()
	board := boardFor(t, workload.BoardA())
	cl := buildCluster(t, cfg, board.Model)
	rep, err := cl.Serve(poissonFor(t, board, rate, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return normalize(rep)
}

// TestInterconnectExactlyOnceUnderChaos asserts the accounting contract
// over the interconnect: every arrival resolves exactly once
// even with crashes racing completion acks across the interconnect,
// and redelivery covers every voided lease.
func TestInterconnectExactlyOnceUnderChaos(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
		{At: 3 * time.Second, Node: 0, Kind: sim.FaultCrash},
		{At: 4 * time.Second, Node: 0, Kind: sim.FaultRecover},
	}}
	rep := serveOverInterconnect(t, icConfig(t, plan, HealthConfig{}, HedgeConfig{}), 30, 150, 11)
	if rep.N != 150 {
		t.Fatalf("admitted %d of 150", rep.N)
	}
	if rep.Completions+rep.RedeliveredRejected != rep.N {
		t.Errorf("exactly-once broken: %d completions + %d rejected != %d admitted",
			rep.Completions, rep.RedeliveredRejected, rep.N)
	}
	if rep.LostLeases == 0 {
		t.Fatal("two crashes voided no leases; the test exercises nothing")
	}
	if rep.Redelivered < rep.LostLeases-rep.RedeliveredRejected {
		t.Errorf("redelivered %d of %d voided leases (%d terminally rejected)",
			rep.Redelivered, rep.LostLeases, rep.RedeliveredRejected)
	}
}

// slowInterconnect makes every hop take tens of milliseconds, so
// offers and folds are on the wire long enough to race crashes and
// lease resolutions.
var slowInterconnect = Interconnect{
	Dispatch:   5 * time.Millisecond,
	IntraBoard: 20 * time.Millisecond,
	InterNode:  40 * time.Millisecond,
	BoardSize:  2,
}

// twoCrashes crashes node 2 and then node 0, one second each.
var twoCrashes = []sim.FaultEvent{
	{At: 2 * time.Second, Node: 2, Kind: sim.FaultCrash},
	{At: 3 * time.Second, Node: 2, Kind: sim.FaultRecover},
	{At: 5 * time.Second, Node: 0, Kind: sim.FaultCrash},
	{At: 6 * time.Second, Node: 0, Kind: sim.FaultRecover},
}

// TestInterconnectCrashVoidsAdmissionOnTheWire pins the crash/admission
// race: a node admits a request, crashes before the accept fold
// reaches the front end, and purges it. The fold's receipt carries
// the node's crash epoch, so the front end sees the admission was
// voided and redelivers the request instead of opening a lease on a
// copy that no longer exists (which left the stream unable to close).
func TestInterconnectCrashVoidsAdmissionOnTheWire(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	for seed := int64(1); seed <= 8; seed++ {
		cfg := icConfig(t, &sim.FaultPlan{Events: twoCrashes}, HealthConfig{}, HedgeConfig{})
		cfg.Interconnect = slowInterconnect
		rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 30, 300, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.LostLeases == 0 {
			t.Fatalf("seed %d: the crashes voided no leases; the test exercises nothing", seed)
		}
		if rep.Completions+rep.RedeliveredRejected != rep.N {
			t.Errorf("seed %d: exactly-once broken: %d completions + %d rejected != %d arrivals",
				seed, rep.Completions, rep.RedeliveredRejected, rep.N)
		}
	}
}

// TestHedgeAccountingUnderCrashes pins the hedge identity — every
// fired hedge ends exactly once as wasted or voided — when crashes
// race hedged leases, with and without an interconnect: a crash of the
// primary's node promotes the hedge copy (the race's losing copy died
// with the node), a crash can void orphaned copies, and a lease hedged
// again after a crash or redelivery can leave orphans on several
// nodes. The straggler plan also crashes the straggler mid-batch and
// restarts it while its old batch is still executing.
func TestHedgeAccountingUnderCrashes(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	stragglerCrash := []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 4 * time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 5 * time.Second, Node: 1, Kind: sim.FaultRecover},
		{At: 6 * time.Second, Node: 3, Kind: sim.FaultCrash},
		{At: 9 * time.Second, Node: 3, Kind: sim.FaultRecover},
	}
	for _, ic := range []Interconnect{{}, slowInterconnect} {
		for _, tc := range []struct {
			plan   []sim.FaultEvent
			health HealthConfig
		}{{twoCrashes, HealthConfig{}}, {stragglerCrash, grayHealth}} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := icConfig(t, &sim.FaultPlan{Events: tc.plan}, tc.health, HedgeConfig{After: time.Second})
				cfg.Interconnect = ic
				rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 30, 300, seed))
				if err != nil {
					t.Fatalf("interconnect %v seed %d: %v", ic.InterNode, seed, err)
				}
				if rep.HedgesFired == 0 || rep.LostLeases+rep.HedgePromoted == 0 {
					t.Fatalf("interconnect %v seed %d: %d hedges, %d lost leases, %d promotions; the test exercises nothing",
						ic.InterNode, seed, rep.HedgesFired, rep.LostLeases, rep.HedgePromoted)
				}
				if rep.HedgeWasted+rep.HedgesVoided != rep.HedgesFired {
					t.Errorf("interconnect %v seed %d: hedge accounting leaks: %d wasted + %d voided != %d fired (%d promoted)",
						ic.InterNode, seed, rep.HedgeWasted, rep.HedgesVoided, rep.HedgesFired, rep.HedgePromoted)
				}
				if rep.Completions+rep.RedeliveredRejected != rep.N {
					t.Errorf("interconnect %v seed %d: exactly-once broken: %d completions + %d rejected != %d arrivals",
						ic.InterNode, seed, rep.Completions, rep.RedeliveredRejected, rep.N)
				}
			}
		}
	}
}

// TestInterconnectLateHedgeCountsAsFired pins the hedge identity over the
// interconnect: every fired hedge ends exactly once as wasted or
// voided. Under a slow interconnect a hedge offer flies for tens of
// milliseconds, long enough for its lease to resolve before the copy
// is admitted; that late copy is still a fired hedge and its
// completion still counts as waste. Each of these seeds lands such a
// late copy behind a 150x straggler.
func TestInterconnectLateHedgeCountsAsFired(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
		{At: 20 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}
	for _, seed := range []int64{4, 6, 7, 8} {
		cfg := icConfig(t, plan, grayHealth, HedgeConfig{After: time.Second})
		cfg.Interconnect = slowInterconnect
		rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 8, 120, seed))
		if err != nil {
			t.Fatal(err)
		}
		if rep.HedgesFired == 0 {
			t.Fatalf("seed %d: no hedge fired; the test exercises nothing", seed)
		}
		if rep.HedgeWasted+rep.HedgesVoided != rep.HedgesFired {
			t.Errorf("seed %d: hedge accounting leaks: %d wasted + %d voided != %d fired",
				seed, rep.HedgeWasted, rep.HedgesVoided, rep.HedgesFired)
		}
		if rep.Completions != rep.N {
			t.Errorf("seed %d: %d completions of %d arrivals", seed, rep.Completions, rep.N)
		}
	}
}

// TestInterconnectReopenDeterministic pins warm restarts over the
// interconnect: consecutive Serve calls continue one environment, hedge
// timers, leases, and pooled messages from the first stream never leak
// into the second, and a second cluster replaying the same rounds
// reports identically.
func TestInterconnectReopenDeterministic(t *testing.T) {
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: time.Second, Node: 1, Kind: sim.FaultCrash},
		{At: 2 * time.Second, Node: 1, Kind: sim.FaultRecover},
	}}
	board := boardFor(t, workload.BoardA())
	run := func() []*Report {
		cl := buildCluster(t, icConfig(t, plan, grayHealth, HedgeConfig{After: time.Second}), board.Model)
		var reps []*Report
		for round := 0; round < 2; round++ {
			rep, err := cl.Serve(poissonFor(t, board, 25, 100, int64(17+round)))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if rep.Completions+rep.RedeliveredRejected != rep.N {
				t.Fatalf("round %d: %d completions + %d rejected != %d admitted",
					round, rep.Completions, rep.RedeliveredRejected, rep.N)
			}
			reps = append(reps, normalize(rep))
		}
		return reps
	}
	want, got := run(), run()
	for round := range want {
		if !reflect.DeepEqual(want[round], got[round]) {
			t.Errorf("round %d diverged:\n%+v\nvs\n%+v", round, want[round], got[round])
		}
	}
}

// TestInterconnectConfigValidation pins the constructor's contract checks.
func TestInterconnectConfigValidation(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative latency", func(c *Config) { c.Interconnect = Interconnect{Dispatch: -time.Millisecond} }},
		{"free hop to a node", func(c *Config) {
			// Enabled, but the front end's board reaches its nodes for free.
			c.Interconnect = Interconnect{InterNode: time.Millisecond, BoardSize: 2}
		}},
	}
	for _, tc := range bad {
		cfg := icConfig(t, nil, HealthConfig{}, HedgeConfig{})
		tc.mut(&cfg)
		if _, err := New(cfg, board.Model); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestInterconnectLatencyShowsUp sanity-checks that the hop model actually
// costs something: the same stream served with a 10x slower
// interconnect completes with a strictly higher mean latency.
func TestInterconnectLatencyShowsUp(t *testing.T) {
	fast := serveOverInterconnect(t, icConfig(t, nil, HealthConfig{}, HedgeConfig{}), 40, 200, 13)
	slowIC := icConfig(t, nil, HealthConfig{}, HedgeConfig{})
	slowIC.Interconnect = Interconnect{
		Dispatch:   2 * time.Millisecond,
		IntraBoard: time.Millisecond,
		InterNode:  6 * time.Millisecond,
		BoardSize:  2,
	}
	slow := serveOverInterconnect(t, slowIC, 40, 200, 13)
	if slow.Latency.Mean <= fast.Latency.Mean {
		t.Errorf("10x interconnect did not raise mean latency: fast %v, slow %v",
			time.Duration(fast.Latency.Mean*float64(time.Second)),
			time.Duration(slow.Latency.Mean*float64(time.Second)))
	}
}
