package main

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestCovered(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},
		{[][2]int64{{5, 10}, {0, 7}}, 10},          // overlapping, out of order
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}}, 12}, // nested and chained
		{[][2]int64{{0, 5}, {5, 8}}, 8},            // touching
	}
	for _, c := range cases {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestStreamSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{defaultSeed, 1, 2} {
		if got := streamSeed(seed, 0); got != seed {
			t.Errorf("stream 0 of seed %d has seed %d", seed, got)
		}
		for j := 0; j < streams; j++ {
			s := streamSeed(seed, j)
			if s < 0 || seen[s] {
				t.Errorf("stream %d of seed %d: seed %d negative or shared", j, seed, s)
			}
			seen[s] = true
		}
	}
}

func TestLayerTimesSelfSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: spanServe, start: 0, end: 100, parent: -1},
		{name: spanSetup, start: 100, end: 130, parent: -1},
		{name: spanPick, start: 10, end: 30, parent: 0},
		{name: spanVictims, start: 20, end: 40, parent: 0}, // overlaps the pick
		{name: spanNext, start: 50, end: 60, parent: 0},
	}
	durs, self := layerTimes(spans, 2)
	if durs[spanServe][0] != 100 || durs[spanPick][0] != 20 || durs[spanVictims][0] != 20 {
		t.Errorf("durations = %v", durs)
	}
	if self[spanServe] != 100-40 {
		t.Errorf("serve self = %d, want 60", self[spanServe])
	}
	if self[spanSetup] != 30 {
		t.Errorf("setup self = %d, want 30", self[spanSetup])
	}
	if len(durs[spanNext]) != 1 {
		t.Errorf("next durations = %v", durs[spanNext])
	}
}

// smallFaults is fleet-faults on a short stream: a sharded fleet under a
// drain and a straggler, with the breaker on, so the wrappers run on
// parallel kernel workers.
var smallFaults = fleetSpec{
	nodes:        100,
	requests:     3000,
	interconnect: fleetFaults.interconnect,
	plan: []sim.FaultEvent{
		{At: 2 * time.Second, Node: 2, Kind: sim.FaultDrain},
		{At: 3 * time.Second, Node: 2, Kind: sim.FaultRecover},
		{At: time.Second, Node: 3, Kind: sim.FaultSlow, Factor: 150},
		{At: 4 * time.Second, Node: 3, Kind: sim.FaultRecover},
	},
	health: fleetFaults.health,
}

// TestTracingIsReadOnly runs each workload shape with and without the
// tracing wrappers: the simulated outputs must be identical, and the
// traced run must record spans at every seam it crosses.
func TestTracingIsReadOnly(t *testing.T) {
	cases := []struct {
		name string
		run  func(int64, *tracer) (*sample, error)
	}{
		{"fleet-steady", func(seed int64, tr *tracer) (*sample, error) {
			return runFleet(fleetSpec{nodes: 100, requests: 3000}, seed, tr)
		}},
		{"fleet-faults", func(seed int64, tr *tracer) (*sample, error) { return runFleet(smallFaults, seed, tr) }},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name string
			run  func(int64, *tracer) (*sample, error)
		}{"paper-grid", runGrid})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(defaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := c.run(defaultSeed, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest {
				t.Fatalf("digest %s untraced, %s traced", plain.digest, traced.digest)
			}
			if plain.completions == 0 || plain.completions != traced.completions {
				t.Fatalf("completions %d untraced, %d traced", plain.completions, traced.completions)
			}
			m := layerMetrics(traced, tr)
			for _, name := range []string{"core.serve_s", "core.new_system_s", "workload.next_s", "pool.victims_calls"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
			if self := m["core.serve_self_s"]; self <= 0 || self >= m["core.serve_s"] {
				t.Errorf("serve self %v outside (0, %v)", self, m["core.serve_s"])
			}
			picks := m["cluster.pick_calls"]
			if c.name == "paper-grid" {
				if picks != 0 {
					t.Errorf("grid made %v router picks", picks)
				}
				return
			}
			if picks < float64(plain.arrivals) {
				t.Errorf("%v picks for %d arrivals", picks, plain.arrivals)
			}
			for _, s := range tr.all() {
				if (s.name == spanPick || s.name == spanNext) && s.parent < 0 {
					t.Fatalf("%s span without a parent", s.name)
				}
			}
		})
	}
}

func TestFleetSteadyChecksPass(t *testing.T) {
	s, err := runFleet(fleetSpec{nodes: 100, requests: 3000}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.check != nil {
		t.Fatal(s.check)
	}
	if s.arrivals != s.completions {
		t.Fatalf("%d of %d completed", s.completions, s.arrivals)
	}
}

func TestFleetFaultsChecksPass(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 1, 2} {
		s, err := runFleet(smallFaults, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.check != nil {
			t.Fatalf("seed %d: %v", seed, s.check)
		}
	}
}

func TestFaultPlanFitsFleet(t *testing.T) {
	for _, spec := range []fleetSpec{fleetFaults, smallFaults} {
		for _, ev := range spec.plan {
			if ev.Node < 0 || ev.Node >= spec.nodes || ev.At >= time.Duration(spec.requests)*time.Second/fleetRate {
				t.Errorf("fault %+v outside a %d-node, %d-request stream", ev, spec.nodes, spec.requests)
			}
		}
		if spec.interconnect == (cluster.Interconnect{}) {
			t.Error("fault workload without an interconnect runs on the classic kernel")
		}
	}
}
