package main

import (
	"fmt"
	"math"
	"reflect"
	"time"
	"unsafe"

	coserve "repro"
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// gridSystem is one bar of the paper's Figure 13.
type gridSystem struct {
	variant core.Variant
	best    bool // configuration from the offline search
}

// gridSystems are Figure 13's five systems: Samba, Samba FIFO, Samba
// Parallel, CoServe Best and CoServe Casual.
var gridSystems = []gridSystem{
	{core.Samba, false},
	{core.SambaFIFO, false},
	{core.SambaParallel, false},
	{core.CoServe, true},
	{core.CoServe, false},
}

// gridCell is one (device, task, system) run of the grid.
type gridCell struct {
	dev  *hw.Device
	task workload.Task
	sys  gridSystem
	srv  *core.System
}

// bestConfig is the offline search's choice for one device and board.
type bestConfig struct {
	gpus, cpus int
	alloc      core.Allocation
}

// runGrid sets up and serves the paper's Figure 13 grid: both devices,
// the four tasks, five systems per task, each cell a fresh system
// serving the task's fixed-period stream. A fresh experiments.Context
// per call makes every run pay for profiling and the offline search.
func runGrid(seed int64, tr *tracer) (*sample, error) {
	s := newSample()
	t0 := time.Now()
	setup := tr.begin(spanSetup)
	ctx := experiments.NewContext()
	a, err := ctx.Board(workload.BoardA())
	if err != nil {
		return nil, err
	}
	b, err := ctx.Board(workload.BoardB())
	if err != nil {
		return nil, err
	}
	tasks := []workload.Task{workload.TaskA1(a), workload.TaskA2(a), workload.TaskB1(b), workload.TaskB2(b)}
	for i := range tasks {
		tasks[i].Seed += seed - defaultSeed
	}
	var cells []*gridCell
	for _, dev := range []*hw.Device{hw.NUMADevice(), hw.UMADevice()} {
		mi := tr.begin(spanProfilerMatrix)
		perf, err := ctx.Perf(dev)
		tr.end(mi)
		if err != nil {
			return nil, err
		}
		best := map[*workload.Board]bestConfig{}
		for _, board := range []*workload.Board{a, b} {
			si := tr.begin(spanProfilerSearch)
			best[board], err = searchBest(ctx, dev, board)
			tr.end(si)
			if err != nil {
				return nil, err
			}
		}
		policies := map[core.Variant]pool.Policy{}
		for _, task := range tasks {
			for _, sys := range gridSystems {
				g, c := core.DefaultExecutors(dev)
				cfg := core.Config{
					Device: dev, Variant: sys.variant,
					GPUExecutors: g, CPUExecutors: c,
					Alloc: coserve.DefaultAllocation(sys.variant, dev, perf, g, c), Perf: perf,
				}
				if sys.best {
					bc := best[task.Board]
					cfg.GPUExecutors, cfg.CPUExecutors, cfg.Alloc = bc.gpus, bc.cpus, bc.alloc
				}
				if tr != nil {
					policy, ok := policies[sys.variant]
					if !ok {
						if policy, err = defaultPolicy(tr, cfg, task.Board.Model); err != nil {
							return nil, err
						}
						policies[sys.variant] = policy
					}
					cfg.EvictPolicy = &tracedPolicy{inner: policy, t: tr, buf: tr.newBuf()}
				}
				ni := tr.begin(spanNewSystem)
				srv, err := core.NewSystem(cfg, task.Board.Model)
				tr.end(ni)
				if err != nil {
					return nil, err
				}
				cells = append(cells, &gridCell{dev: dev, task: task, sys: sys, srv: srv})
			}
		}
	}
	tr.end(setup)
	s.setup = time.Since(t0)

	reps := make([]*core.Report, len(cells))
	kept := make([][]*coe.Request, len(cells))
	for i, cell := range cells {
		var rep *core.Report
		err := s.measure(func() error {
			src, err := cell.task.Stream()
			if err != nil {
				return err
			}
			keep := &keepSource{inner: src}
			var in workload.Source = keep
			if tr != nil {
				in = &tracedSource{inner: keep, t: tr, buf: tr.newBuf()}
			}
			si := tr.begin(spanServe)
			rep, err = cell.srv.Serve(in)
			tr.end(si)
			kept[i] = keep.reqs
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", cell.dev.Name, cell.task.Name, cell.sys.variant, err)
		}
		reps[i] = rep
	}

	var lats []float64
	logBest, nBest := 0.0, 0
	for i, cell := range cells {
		rep := reps[i]
		s.arrivals += int64(cell.task.N)
		s.completions += rep.Completions
		cellLats, err := checkCell(cell, rep, kept[i])
		if err != nil && s.check == nil {
			s.check = err
		}
		lats = append(lats, cellLats...)
		if cell.sys.best {
			logBest += math.Log(rep.Throughput)
			nBest++
		}
		rep.SchedPerOp = 0
	}
	sum := stats.Summarize(lats)
	s.sim["sim_throughput_rps"] = math.Exp(logBest / float64(nBest))
	s.sim["sim_lat_p50_ms"] = sum.P50 * 1e3
	s.layer["sim_lat_p99_ms"] = sum.P99 * 1e3
	s.layer["sim_lat_p99.99_ms"] = stats.Percentile(lats, 99.99) * 1e3
	s.sim["slo_attainment"] = 1 // the grid sets no SLO
	movement(s, reps, s.completions)
	s.digest, err = digest(reps)
	return s, err
}

// checkCell validates one cell: every request of the task completed,
// and the report's median latency matches the one recomputed from the
// requests themselves. It returns the cell's latencies in seconds.
func checkCell(cell *gridCell, rep *core.Report, reqs []*coe.Request) ([]float64, error) {
	name := fmt.Sprintf("%s/%s/%s", cell.dev.Name, cell.task.Name, cell.sys.variant)
	if rep.N != int64(cell.task.N) || rep.Completions != rep.N || len(reqs) != cell.task.N {
		return nil, fmt.Errorf("%s: %d of %d requests completed (%d streamed)", name, rep.Completions, cell.task.N, len(reqs))
	}
	lats := make([]float64, len(reqs))
	for i, r := range reqs {
		if !r.Final() || r.Done <= r.Arrival {
			return nil, fmt.Errorf("%s: request %d not completed", name, r.ID)
		}
		lats[i] = r.Done.Sub(r.Arrival).Seconds()
	}
	if p50 := stats.Summarize(lats).P50; p50 != rep.Latency.P50 {
		return nil, fmt.Errorf("%s: report p50 %v, requests give %v", name, rep.Latency.P50, p50)
	}
	return lats, nil
}

// keepSource passes a stream through and keeps every request it hands
// out, so the benchmark can read each request's latency after the run.
type keepSource struct {
	inner workload.Source
	reqs  []*coe.Request
}

func (k *keepSource) Name() string { return k.inner.Name() }

func (k *keepSource) Next() (workload.TimedRequest, bool) {
	tr, ok := k.inner.Next()
	if ok {
		k.reqs = append(k.reqs, tr.Req)
	}
	return tr, ok
}

func (k *keepSource) Model() *coe.Model { return sourceModel(k.inner) }

// searchBest runs the offline search through experiments.Context.Best
// and reads its choice. Best returns an unexported type, so its fields
// are read by reflection; a renamed or retyped field fails the run
// rather than silently falling back to another configuration.
func searchBest(ctx *experiments.Context, dev *hw.Device, board *workload.Board) (bestConfig, error) {
	choice, err := ctx.Best(dev, board)
	if err != nil {
		return bestConfig{}, err
	}
	v := reflect.ValueOf(&choice).Elem()
	gpus, cpus, alloc := v.FieldByName("gpus"), v.FieldByName("cpus"), v.FieldByName("alloc")
	if gpus.Kind() != reflect.Int || cpus.Kind() != reflect.Int || !alloc.IsValid() ||
		alloc.Type() != reflect.TypeOf(core.Allocation{}) {
		return bestConfig{}, fmt.Errorf("experiments.Context.Best: result %s lacks gpus/cpus/alloc", v.Type())
	}
	return bestConfig{
		gpus:  int(gpus.Int()),
		cpus:  int(cpus.Int()),
		alloc: *(*core.Allocation)(unsafe.Pointer(alloc.UnsafeAddr())),
	}, nil
}
