package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// update rewrites testdata/ledger-matrix.txt from the current renders:
//
//	go test ./internal/cluster -run TestLedgerMatrixGolden -update
var update = flag.Bool("update", false, "rewrite testdata/ledger-matrix.txt from the current renders")

// stragglerCrash slows node 1 150x, crashes it mid-batch and restarts
// it while its old batch still runs, then crashes node 3 for three
// seconds.
var stragglerCrash = []sim.FaultEvent{
	{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
	{At: 4 * time.Second, Node: 1, Kind: sim.FaultCrash},
	{At: 5 * time.Second, Node: 1, Kind: sim.FaultRecover},
	{At: 6 * time.Second, Node: 3, Kind: sim.FaultCrash},
	{At: 9 * time.Second, Node: 3, Kind: sim.FaultRecover},
}

// renderReport prints every fleet field of a normalized report but
// the per-node reports and the (nil in exact mode) sketch pointer, one
// field per token, then for each node its admissions, completions,
// switches, drops and latency summary.
func renderReport(b *strings.Builder, rep *Report) {
	v := reflect.ValueOf(rep).Elem()
	typ := v.Type()
	line := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "PerNode" || f.Type.Kind() == reflect.Pointer {
			continue
		}
		sep := " "
		if line%8 == 0 {
			sep = "\n "
		}
		line++
		fmt.Fprintf(b, "%s%s=%+v", sep, f.Name, v.Field(i).Interface())
	}
	b.WriteString("\n")
	for i, nr := range rep.PerNode {
		fmt.Fprintf(b, " node%d N=%d completions=%d switches=%d dropped=%d latency=%+v\n",
			i, nr.N, nr.Completions, nr.Switches, nr.Dropped, nr.Latency)
	}
}

// TestLedgerMatrixGolden pins the lease ledger's full report — every
// fleet counter and every node's share of the work — across hop models,
// crash and gray fault plans, and hedge deadlines. The experiment
// goldens print only a few of these counters, so a reordering inside
// the ledger (which fold runs first, which lease a crash walk visits
// first) can leave them unchanged while it changes this matrix.
func TestLedgerMatrixGolden(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	ics := []struct {
		name string
		ic   Interconnect
	}{{"zero-hop", Interconnect{}}, {"test", testInterconnect}, {"slow", slowInterconnect}}
	plans := []struct {
		name   string
		events []sim.FaultEvent
		health HealthConfig
	}{
		{"two-crashes", twoCrashes, HealthConfig{}},
		{"straggler-crash+gray", stragglerCrash, grayHealth},
		{"two-crashes+gray", twoCrashes, grayHealth},
	}
	var b strings.Builder
	for _, ic := range ics {
		for _, plan := range plans {
			for _, after := range []time.Duration{0, 300 * time.Millisecond, time.Second} {
				for seed := int64(1); seed <= 4; seed++ {
					cfg := icConfig(t, &sim.FaultPlan{Events: plan.events}, plan.health, HedgeConfig{After: after})
					cfg.Interconnect = ic.ic
					rep, err := buildCluster(t, cfg, board.Model).Serve(poissonFor(t, board, 30, 300, seed))
					if err != nil {
						t.Fatalf("%s %s hedge %v seed %d: %v", ic.name, plan.name, after, seed, err)
					}
					fmt.Fprintf(&b, "== %s %s hedge=%v seed=%d", ic.name, plan.name, after, seed)
					renderReport(&b, normalize(rep))
				}
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "ledger-matrix.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// grayPlan degrades three nodes at once — a 150x straggler, a jittery
// node and a stalled one — with no crash.
var grayPlan = []sim.FaultEvent{
	{At: time.Second, Node: 1, Kind: sim.FaultSlow, Factor: 150},
	{At: 1500 * time.Millisecond, Node: 2, Kind: sim.FaultJitter, Factor: 400},
	{At: 2 * time.Second, Node: 3, Kind: sim.FaultStall, For: 4 * time.Second},
	{At: 9 * time.Second, Node: 1, Kind: sim.FaultRecover},
	{At: 9 * time.Second, Node: 2, Kind: sim.FaultRecover},
}

// TestLedgerIdentityHoldsContinuously checks the ledger between every
// few milliseconds of virtual time, not only at the fault boundaries,
// hedge fires and stream end where verify runs on its own: the
// exactly-once identity holds, and every live lease's ID is on the
// crash-walk list of its primary node and of its hedge node, so a
// crash of either finds it. Runs cover crashes, gray failures with the
// breaker, and 300 ms hedging, at zero hop and over a slow interconnect.
func TestLedgerIdentityHoldsContinuously(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	samples := 0
	for _, ic := range []Interconnect{{}, slowInterconnect} {
		for _, plan := range []struct {
			name   string
			events []sim.FaultEvent
			health HealthConfig
		}{{"two-crashes", twoCrashes, HealthConfig{}}, {"straggler-crash", stragglerCrash, grayHealth}, {"gray", grayPlan, grayHealth}} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := icConfig(t, &sim.FaultPlan{Events: plan.events}, plan.health, HedgeConfig{After: 300 * time.Millisecond})
				cfg.Interconnect = ic
				c := buildCluster(t, cfg, board.Model)
				name := fmt.Sprintf("hop %v, %s plan, seed %d", ic.NodeLatency(0), plan.name, seed)
				var sample func()
				sample = func() {
					samples++
					lg, now := c.ledger, c.env.Now()
					n := len(lg.violations)
					if lg.verify(now, "sample"); len(lg.violations) > n {
						t.Fatalf("%s: %s", name, lg.violations[n])
					}
					for id, l := range lg.live {
						if !slices.Contains(lg.byNode[l.node], id) {
							t.Fatalf("%s at %v: live lease %d is not on node%d's crash-walk list", name, now.Duration(), id, l.node)
						}
						if l.hedgeNode >= 0 && !slices.Contains(lg.byNode[l.hedgeNode], id) {
							t.Fatalf("%s at %v: hedged lease %d is not on hedge node%d's crash-walk list", name, now.Duration(), id, l.hedgeNode)
						}
					}
					if !c.closedAll {
						c.env.After(5*time.Millisecond, sample)
					}
				}
				c.env.After(0, sample)
				rep, err := c.Serve(poissonFor(t, board, 30, 300, seed))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rep.HedgesFired == 0 {
					t.Fatalf("%s: no hedge fired; the run exercises no race", name)
				}
			}
		}
	}
	t.Logf("%d samples", samples)
}
