package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countDelegate is a joined stream's completion hook that only counts.
type countDelegate struct{ done int }

func (d *countDelegate) RequestDone(sim.Time, *coe.Request) { d.done++ }

// TestResidencyCountMatchesPools pins the per-node residency count
// behind ExpertResident against its definition — the OR of Resident
// over the node's pools, scanned by brute force — for CoServe's
// per-executor pools and Samba-CoE Parallel's shared pools. The node
// is driven through preload, a stream of switches with evictions, a
// warm restart, and a crash/recover mid-stream, and the two are
// compared after every step, including after every arrival while
// loads are in flight. (Samba-CoE Parallel starts cold, so its preload
// step checks an empty node.)
func TestResidencyCountMatchesPools(t *testing.T) {
	board := boardFor(t, workload.BoardA())
	m := board.Model
	for _, v := range []Variant{CoServe, SambaParallel} {
		t.Run(v.String(), func(t *testing.T) {
			dev := hw.NUMADevice()
			pm := perfFor(t, dev)
			g, c := DefaultExecutors(dev)
			cfg := Config{
				Device: dev, Variant: v, GPUExecutors: g, CPUExecutors: c,
				Perf: pm, Alloc: CasualAllocation(dev, pm, g, c),
			}
			env := sim.NewEnv()
			s, err := NewSystemInEnv(cfg, m, env)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string) bool {
				t.Helper()
				for _, e := range m.Experts() {
					want := false
					for _, pl := range s.Pools() {
						want = want || pl.Resident(e.ID)
					}
					if got := s.ExpertResident(e.ID); got != want {
						t.Errorf("%s: ExpertResident(%d) = %v, pools say %v", step, e.ID, got, want)
						return false
					}
				}
				return true
			}
			if !v.coldStart() && s.LoadedExperts() == 0 {
				t.Fatal("preload placed no experts; the test exercises nothing")
			}
			check("preload")

			var switches, evictions int64
			for stream := 0; stream < 2; stream++ {
				d := &countDelegate{}
				if err := s.JoinStream(fmt.Sprintf("s%d", stream), d); err != nil {
					t.Fatal(err)
				}
				src, err := workload.Poisson{Name: "p", Board: board, Rate: 40, N: 300, Seed: int64(7 + stream)}.NewSource()
				if err != nil {
					t.Fatal(err)
				}
				// The arrival loop: a callback that offers every due
				// request and re-arms itself for the first one not yet due.
				var start sim.Time
				var tr workload.TimedRequest
				held := false
				i := 0
				var arrive func()
				arrive = func() {
					for ; ; i++ {
						if !held {
							var ok bool
							if tr, ok = src.Next(); !ok {
								break
							}
							held = true
						}
						if wait := start.Add(tr.At).Sub(env.Now()); wait > 0 {
							env.After(wait, arrive)
							return
						}
						held = false
						s.Offer(env.Now(), tr)
						if !check(fmt.Sprintf("stream %d arrival %d", stream, i)) {
							break
						}
						if stream == 1 && i == 150 {
							s.Crash(env.Now())
							check("crash")
							i++
							env.After(time.Second, func() {
								s.Restart()
								check("recover")
								arrive()
							})
							return
						}
					}
					s.CloseStream()
				}
				env.After(0, func() {
					start = env.Now()
					arrive()
				})
				env.Run()
				rep, err := s.StreamReport()
				if err != nil {
					t.Fatal(err)
				}
				switches += rep.Switches
				evictions += rep.Evictions
				check(fmt.Sprintf("stream %d end", stream))
			}
			if switches == 0 || evictions == 0 {
				t.Fatalf("switches = %d, evictions = %d: the streams exercised no eviction", switches, evictions)
			}
		})
	}
}
