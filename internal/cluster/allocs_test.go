package cluster

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestInterconnectSteadyStateAllocsPin pins the request path's
// allocation discipline, over a zero hop (folds delivered inline) and
// over the interconnect (folds as timed messages): once the message
// pool, lease pool, arena, and sketches are warm, a full stream of
// offer → accept fold → completion fold round trips must stay within a
// small per-request allocation budget. A leak in any pool — messages
// never returned to the free list, leases never released, requests not
// recycled — shows up here as a per-request slope, not a constant.
func TestInterconnectSteadyStateAllocsPin(t *testing.T) {
	for _, tc := range []struct {
		name string
		ic   Interconnect
	}{
		{"zero hop", Interconnect{}},
		{"interconnect", testInterconnect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			board := boardFor(t, workload.BoardA())
			arena := coe.NewArena()
			cfg := icConfig(t, nil, HealthConfig{}, HedgeConfig{})
			cfg.Interconnect = tc.ic
			cfg.Arena = arena
			cfg.Percentiles = core.PercentilesSketch
			for i := range cfg.Nodes {
				cfg.Nodes[i].DisablePicks = true
			}
			c := buildCluster(t, cfg, board.Model)

			const n = 2000
			seed := int64(1)
			stream := func() workload.Source {
				src, err := workload.Poisson{
					Name: "allocs-pin", Board: board, Rate: 120, N: n, Seed: seed, Arena: arena,
				}.NewSource()
				if err != nil {
					t.Fatal(err)
				}
				seed++
				return src
			}

			// Warm everything: the first stream grows the arena to the
			// in-flight peak, stocks the message and lease free lists, and
			// sizes the recorder sketches.
			if _, err := c.Serve(stream()); err != nil {
				t.Fatal(err)
			}

			avg := testing.AllocsPerRun(2, func() {
				if _, err := c.Serve(stream()); err != nil {
					t.Error(err)
				}
			})
			// The protocol itself — pooled messages, pooled leases —
			// contributes ~0 here; the budget covers what remains:
			// per-stream fixed overhead (recorder reset, source
			// construction) and node-internal expert-cache eviction churn
			// at under one allocation per request. The closure-era
			// kernel's ~10 allocs/request blows through the bound
			// seven-fold, so any message- or lease-pool leak fails loudly.
			perReq := avg / n
			t.Logf("allocs: %.0f total, %.3f per request", avg, perReq)
			if perReq > 1.5 {
				t.Errorf("steady-state serve allocates %.3f per request (%.0f total for %d), want <= 1.5",
					perReq, avg, n)
			}
		})
	}
}

// TestInterconnectCrashWalkListsStayBounded pins the lease ledger's
// per-node crash-walk lists (byNode) to the work in flight: every
// admission appends its request ID, and over a long crash-free stream
// — where no crash ever truncates a list — resolved entries must be
// compacted away rather than accumulate with the stream. The total
// list length is sampled through the stream and held to about twice
// the ledger's peak in-flight count.
func TestInterconnectCrashWalkListsStayBounded(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	c := buildCluster(t, icConfig(t, nil, HealthConfig{}, HedgeConfig{}), board.Model)
	const n = 4000
	var peakLive, peakListed int
	var sample func()
	sample = func() {
		lg := c.ledger
		listed := 0
		for _, ids := range lg.byNode {
			listed += len(ids)
		}
		peakLive = max(peakLive, len(lg.live))
		peakListed = max(peakListed, listed)
		if !c.closedAll {
			c.env.After(10*time.Millisecond, sample)
		}
	}
	c.env.After(0, sample)
	rep, err := c.Serve(poissonFor(t, board, 60, n, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != n {
		t.Fatalf("%d completions of %d", rep.Completions, n)
	}
	t.Logf("peak in flight %d, peak listed %d over %d requests", peakLive, peakListed, n)
	if peakLive == 0 || peakLive > n/10 {
		t.Fatalf("peak in-flight %d of %d requests; the stream does not exercise a steady state", peakLive, n)
	}
	if bound := 2*peakLive + 8*len(c.nodes); peakListed > bound {
		t.Errorf("crash-walk lists peaked at %d entries, want <= %d (2 x the %d in-flight peak + slack)",
			peakListed, bound, peakLive)
	}
}

// TestFilteredPickAllocatesNothing pins the routed path off the fast
// path: once a node drains or a breaker restricts one, every arrival
// filters the fleet through collect, and every hedge does so always.
// The breaker predicates reach collect as method expressions, so
// neither filter allocates per call.
func TestFilteredPickAllocatesNothing(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	c := buildCluster(t, icConfig(t, nil, grayHealth, HedgeConfig{After: time.Second}), board.Model)
	c.health = newHealthState(grayHealth.withDefaults(), len(c.nodes))
	c.nodes[3].sys.Drain()
	c.unroutable++
	tr, ok := poissonFor(t, board, 10, 1, 1).Next()
	if !ok {
		t.Fatal("empty stream")
	}
	l := &lease{id: tr.Req.ID, class: tr.Req.Class, chain: tr.Req.Chain, node: 0, hedgeNode: -1}
	allocs := testing.AllocsPerRun(100, func() {
		if c.pickNode(0, tr.Req) < 0 || c.pickHedgeNode(0, l) < 1 {
			t.Fatal("no eligible node picked")
		}
	})
	if allocs != 0 {
		t.Errorf("filtered picks allocate %.1f per call, want 0", allocs)
	}
}
