package executor

import (
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// rig wires a single executor against a NUMA GPU with the given pool and
// activation capacities.
type rig struct {
	env      *sim.Env
	dev      *hw.Device
	store    *pool.Store
	queue    *sched.Queue
	pool     *pool.Pool
	acts     *memory.Arena
	ex       *Executor
	run      *Run
	done     bool
	finished []*coe.Request
	model    *coe.Model
}

func newRig(t *testing.T, poolCap, actCap int64, maxBatch int) *rig {
	t.Helper()
	env := sim.NewEnv()
	dev := hw.NUMADevice()
	store := pool.NewStore(env, dev, 0)

	b := coe.NewBuilder("rig")
	for i := 0; i < 8; i++ {
		id := b.AddExpert("c", model.ResNet101, coe.Preliminary)
		b.AddRule(i, coe.Rule{Classifier: id})
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	pl := pool.New("gpu0", poolCap, store, memory.TierGPU, pool.LRU{}, env.Now, make([]int32, m.NumExperts()))
	perf := func(e *coe.Expert) model.Perf {
		return model.Perf{
			Arch:        e.Arch,
			K:           model.KCoeff(e.Arch, dev.GPU),
			B:           dev.GPU.LaunchOverhead,
			MaxBatch:    maxBatch,
			ActPerImage: model.ActBytesPerImage(e.Arch, dev.GPU),
		}
	}
	r := &rig{env: env, dev: dev, store: store, pool: pl, model: m}
	r.acts = memory.NewArena("acts", actCap)
	r.queue = sched.NewQueue(env, "q0", sched.ModeGrouped, sched.Costs{
		K:           func(e *coe.Expert) time.Duration { return perf(e).K },
		B:           func(e *coe.Expert) time.Duration { return perf(e).B },
		PredictLoad: func(e *coe.Expert) time.Duration { return store.PredictLoad(e, memory.TierGPU) },
		IsLoaded:    pl.IsLoaded,
	})
	r.ex = &Executor{
		Name:    "gpu0",
		Proc:    ProcProfile{Exec: func(a model.Architecture, n int) time.Duration { return model.ExecLatency(a, dev.GPU, n) }, ActPerImage: func(a model.Architecture) int64 { return model.ActBytesPerImage(a, dev.GPU) }},
		Queue:   r.queue,
		Pool:    pl,
		Compute: sim.NewResource(env, "gpu", 1),
		Acts:    r.acts,
		Perf:    perf,
		Done:    func() bool { return r.done },
		OnBatch: func(_ sim.Time, req *coe.Request) { r.finished = append(r.finished, req) },
	}
	return r
}

func (r *rig) enqueue(reqs ...*coe.Request) {
	for _, rq := range reqs {
		r.queue.Enqueue(r.model.Expert(rq.Expert()), rq)
	}
}

func (r *rig) finish() {
	r.done = true
	r.queue.Gate().Notify()
}

// start launches the rig's executor.
func (r *rig) start() { r.run = r.ex.Start(r.env) }

// checkExited fails the test unless the run has ended and left no
// waiter on its queue's gate.
func checkExited(t *testing.T, run *Run, q *sched.Queue) {
	t.Helper()
	if !run.Exited() {
		t.Errorf("%s: run did not exit", run)
	}
	if n := q.Gate().Waiting(); n != 0 {
		t.Errorf("%s: %d waiters left on the queue gate", run, n)
	}
}

func mkReq(id int64, e coe.ExpertID) *coe.Request {
	return coe.NewRequest(id, int(e), []coe.ExpertID{e})
}

const rn101Bytes = 178_196_640

func TestExecutorProcessesAllRequests(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	for i := 0; i < 10; i++ {
		r.enqueue(mkReq(int64(i), coe.ExpertID(i%2)))
	}
	r.finish()
	r.start()
	r.env.Run()
	checkExited(t, r.run, r.queue)
	if len(r.finished) != 10 {
		t.Fatalf("finished %d of 10", len(r.finished))
	}
	if r.ex.Processed() != 10 {
		t.Errorf("processed = %d", r.ex.Processed())
	}
	if r.pool.Switches() != 2 {
		t.Errorf("switches = %d, want 2 (one per expert)", r.pool.Switches())
	}
}

func TestExecutorBatchesWithinProfiledMax(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 64<<30, 4)
	for i := 0; i < 10; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.start()
	r.env.Run()
	checkExited(t, r.run, r.queue)
	// 10 requests at max batch 4 -> batches of 4,4,2.
	if r.ex.Batches() != 3 {
		t.Errorf("batches = %d, want 3", r.ex.Batches())
	}
}

func TestExecutorRespectsMemoryBound(t *testing.T) {
	// Activation arena fits only 2 images -> batches of <= 2 even though
	// the profile allows 16.
	per := model.ActBytesPerImage(model.ResNet101, hw.NUMADevice().GPU)
	r := newRig(t, 4*rn101Bytes, 2*per+per/2, 16)
	for i := 0; i < 6; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.start()
	r.env.Run()
	checkExited(t, r.run, r.queue)
	if r.ex.Batches() != 3 {
		t.Errorf("batches = %d, want 3 (memory-bound batches of 2)", r.ex.Batches())
	}
	if len(r.finished) != 6 {
		t.Errorf("finished = %d of 6", len(r.finished))
	}
	if r.acts.Reserved() != 0 {
		t.Errorf("activation bytes leaked: %d", r.acts.Reserved())
	}
}

func TestExecutorBatchTimingMatchesModel(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.pool.Preload(r.model.Expert(0))
	for i := 0; i < 8; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.finish()
	r.start()
	end := r.env.Run()
	checkExited(t, r.run, r.queue)
	want := model.ExecLatency(model.ResNet101, r.dev.GPU, 8)
	if end != sim.Time(want) {
		t.Errorf("run took %v, want one batch = %v", end, want)
	}
	if r.ex.BusyTime() != want {
		t.Errorf("busy = %v, want %v", r.ex.BusyTime(), want)
	}
}

func TestExecutorSwitchThenExecute(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.enqueue(mkReq(0, 0))
	r.finish()
	r.start()
	end := r.env.Run()
	checkExited(t, r.run, r.queue)
	load := r.store.PredictLoad(r.model.Expert(0), memory.TierGPU)
	exec := model.ExecLatency(model.ResNet101, r.dev.GPU, 1)
	if end != sim.Time(load+exec) {
		t.Errorf("run took %v, want load+exec = %v", end, load+exec)
	}
}

func TestExecutorWaitsForWorkThenExits(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 16)
	r.start()
	r.env.After(time.Second, func() {
		r.enqueue(mkReq(0, 0))
		r.env.After(5*time.Second, r.finish)
	})
	r.env.Run()
	if len(r.finished) != 1 {
		t.Fatalf("finished = %d, want 1", len(r.finished))
	}
	checkExited(t, r.run, r.queue)
}

// twoExperts builds a model of two ResNet101 classifiers.
func twoExperts(t *testing.T) (*coe.Model, coe.ExpertID, coe.ExpertID) {
	t.Helper()
	b := coe.NewBuilder("m")
	e0 := b.AddExpert("a", model.ResNet101, coe.Preliminary)
	e1 := b.AddExpert("b", model.ResNet101, coe.Preliminary)
	b.AddRule(0, coe.Rule{Classifier: e0})
	b.AddRule(1, coe.Rule{Classifier: e1})
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m, e0, e1
}

// newExecutor wires an executor named name on its own queue over the
// given pool, compute unit, and activation arena, with a NUMA GPU
// profile allowing batches of up to 16.
func newExecutor(env *sim.Env, store *pool.Store, name string, pl *pool.Pool, compute *sim.Resource, acts *memory.Arena, done func() bool, onBatch func(sim.Time, *coe.Request)) *Executor {
	dev := store.Device()
	q := sched.NewQueue(env, name, sched.ModeGrouped, sched.Costs{
		K:           func(e *coe.Expert) time.Duration { return model.KCoeff(e.Arch, dev.GPU) },
		B:           func(e *coe.Expert) time.Duration { return dev.GPU.LaunchOverhead },
		PredictLoad: func(e *coe.Expert) time.Duration { return store.PredictLoad(e, memory.TierGPU) },
		IsLoaded:    pl.IsLoaded,
	})
	return &Executor{
		Name:    name,
		Proc:    ProcProfile{Exec: func(a model.Architecture, n int) time.Duration { return model.ExecLatency(a, dev.GPU, n) }, ActPerImage: func(a model.Architecture) int64 { return model.ActBytesPerImage(a, dev.GPU) }},
		Queue:   q,
		Pool:    pl,
		Compute: compute,
		Acts:    acts,
		Perf: func(e *coe.Expert) model.Perf {
			return model.Perf{Arch: e.Arch, K: model.KCoeff(e.Arch, dev.GPU), B: dev.GPU.LaunchOverhead, MaxBatch: 16, ActPerImage: model.ActBytesPerImage(e.Arch, dev.GPU)}
		},
		Done:    done,
		OnBatch: onBatch,
	}
}

func TestTwoExecutorsShareComputeSerially(t *testing.T) {
	// Two executors on one GPU: loads overlap with execution, but
	// execution itself serializes on the compute resource.
	env := sim.NewEnv()
	dev := hw.NUMADevice()
	store := pool.NewStore(env, dev, 0)
	m, e0, e1 := twoExperts(t)
	compute := sim.NewResource(env, "gpu", 1)
	acts := memory.NewArena("acts", 8<<30)
	done := func() bool { return true }
	var finished int
	onBatch := func(sim.Time, *coe.Request) { finished++ }
	mk := func(name string, preload coe.ExpertID) *Executor {
		pl := pool.New(name, 4*rn101Bytes, store, memory.TierGPU, pool.LRU{}, env.Now, make([]int32, m.NumExperts()))
		pl.Preload(m.Expert(preload))
		return newExecutor(env, store, name, pl, compute, acts, done, onBatch)
	}
	ex0, ex1 := mk("g0", e0), mk("g1", e1)
	ex0.Queue.Enqueue(m.Expert(e0), mkReq(0, e0))
	ex1.Queue.Enqueue(m.Expert(e1), mkReq(1, e1))
	run0, run1 := ex0.Start(env), ex1.Start(env)
	end := env.Run()
	checkExited(t, run0, ex0.Queue)
	checkExited(t, run1, ex1.Queue)
	exec1 := model.ExecLatency(model.ResNet101, dev.GPU, 1)
	if end != sim.Time(2*exec1) {
		t.Errorf("two preloaded single-request groups took %v, want serialized 2x%v", end, exec1)
	}
	if finished != 2 {
		t.Errorf("finished = %d, want 2", finished)
	}
}

// TestCrashMidBatchRestartOverlapsOldRun crashes the node while a batch
// executes and restarts it at once, so the crashed epoch's run is still
// mid-batch when the next run launches. The old batch must go to OnVoid,
// never OnBatch; the new run serves the requests enqueued after the
// restart, waiting for the compute unit the old batch still holds; and
// the old run exits instead of serving alongside the new one.
func TestCrashMidBatchRestartOverlapsOldRun(t *testing.T) {
	r := newRig(t, 4*rn101Bytes, 8<<30, 4)
	r.pool.Preload(r.model.Expert(0))
	epoch := 0
	var voided []*coe.Request
	var doneAt []sim.Time
	r.ex.Epoch = func() int { return epoch }
	r.ex.OnVoid = func(_ sim.Time, req *coe.Request) { voided = append(voided, req) }
	r.ex.OnBatch = func(now sim.Time, req *coe.Request) {
		r.finished = append(r.finished, req)
		doneAt = append(doneAt, now)
	}
	for i := 0; i < 8; i++ {
		r.enqueue(mkReq(int64(i), 0))
	}
	r.start()
	old := r.run
	exec4 := model.ExecLatency(model.ResNet101, r.dev.GPU, 4)
	exec2 := model.ExecLatency(model.ResNet101, r.dev.GPU, 2)
	var purged []*coe.Request
	r.env.After(exec4/2, func() { // the first batch of four is executing
		epoch++
		purged = r.queue.Purge()
		r.queue.Gate().Notify()
		r.enqueue(mkReq(100, 0), mkReq(101, 0))
		r.start()
		r.env.After(time.Minute, r.finish)
	})
	r.env.Run()

	if len(voided) != 4 || voided[0].ID != 0 || voided[3].ID != 3 {
		t.Errorf("voided = %d requests, want the in-flight batch 0..3", len(voided))
	}
	if len(purged) != 4 {
		t.Errorf("purged = %d, want the 4 queued behind the batch", len(purged))
	}
	if len(r.finished) != 2 || r.finished[0].ID != 100 || r.finished[1].ID != 101 {
		t.Fatalf("finished = %v, want only the post-restart requests 100, 101", r.finished)
	}
	if want := sim.Time(exec4 + exec2); doneAt[0] != want {
		t.Errorf("new run's batch finished at %v, want %v (after the voided batch frees compute)", doneAt[0], want)
	}
	if r.ex.Batches() != 1 || r.ex.BusyTime() != exec2 {
		t.Errorf("batches = %d, busy = %v; want only the new run's batch of %v", r.ex.Batches(), r.ex.BusyTime(), exec2)
	}
	checkExited(t, old, r.queue)
	checkExited(t, r.run, r.queue)
	if r.pool.LoadedUnpinned()[0].Expert.ID != 0 {
		t.Error("expert 0 still pinned after both runs exited")
	}
}

// TestSharerWaitsForInFlightLoad runs two executors over one shared pool
// (the Samba-CoE Parallel arrangement), both needing the same absent
// expert: the second must wait on the first one's in-flight load
// instead of switching the expert in again.
func TestSharerWaitsForInFlightLoad(t *testing.T) {
	env := sim.NewEnv()
	store := pool.NewStore(env, hw.NUMADevice(), 0)
	m, e0, _ := twoExperts(t)
	shared := pool.New("shared", 4*rn101Bytes, store, memory.TierGPU, pool.LRU{}, env.Now, make([]int32, m.NumExperts()))
	acts := memory.NewArena("acts", 8<<30)
	done := func() bool { return true }
	var doneAt []sim.Time
	onBatch := func(now sim.Time, _ *coe.Request) { doneAt = append(doneAt, now) }
	ex0 := newExecutor(env, store, "g0", shared, sim.NewResource(env, "gpu0", 1), acts, done, onBatch)
	ex1 := newExecutor(env, store, "g1", shared, sim.NewResource(env, "gpu1", 1), acts, done, onBatch)
	ex0.Queue.Enqueue(m.Expert(e0), mkReq(0, e0))
	ex1.Queue.Enqueue(m.Expert(e0), mkReq(1, e0))
	run0, run1 := ex0.Start(env), ex1.Start(env)
	env.Run()

	if shared.Switches() != 1 {
		t.Errorf("switches = %d, want 1 (the sharer waits for the load in flight)", shared.Switches())
	}
	load := store.PredictLoad(m.Expert(e0), memory.TierGPU)
	want := sim.Time(load + model.ExecLatency(model.ResNet101, store.Device().GPU, 1))
	if len(doneAt) != 2 || doneAt[0] != want || doneAt[1] != want {
		t.Errorf("batches finished at %v, want both at load+exec = %v", doneAt, want)
	}
	checkExited(t, run0, ex0.Queue)
	checkExited(t, run1, ex1.Queue)
}

// TestActivationMemoryWait gives two executors an activation arena that
// holds one image: the second batch must wait for the first to release
// its activation memory, even though it has its own compute unit.
func TestActivationMemoryWait(t *testing.T) {
	env := sim.NewEnv()
	dev := hw.NUMADevice()
	store := pool.NewStore(env, dev, 0)
	m, e0, e1 := twoExperts(t)
	per := model.ActBytesPerImage(model.ResNet101, dev.GPU)
	acts := memory.NewArena("acts", per+per/2)
	done := func() bool { return true }
	var doneAt []sim.Time
	onBatch := func(now sim.Time, _ *coe.Request) { doneAt = append(doneAt, now) }
	mk := func(name string, e coe.ExpertID) *Executor {
		pl := pool.New(name, 4*rn101Bytes, store, memory.TierGPU, pool.LRU{}, env.Now, make([]int32, m.NumExperts()))
		pl.Preload(m.Expert(e))
		ex := newExecutor(env, store, name, pl, sim.NewResource(env, name, 1), acts, done, onBatch)
		ex.Queue.Enqueue(m.Expert(e), mkReq(int64(e), e))
		return ex
	}
	ex0, ex1 := mk("g0", e0), mk("g1", e1)
	run0, run1 := ex0.Start(env), ex1.Start(env)
	env.Run()

	exec1 := model.ExecLatency(model.ResNet101, dev.GPU, 1)
	if len(doneAt) != 2 || doneAt[0] != sim.Time(exec1) || doneAt[1] != sim.Time(2*exec1) {
		t.Errorf("batches finished at %v, want %v then %v", doneAt, exec1, 2*exec1)
	}
	if acts.Reserved() != 0 || acts.Waiting() != 0 || acts.Peak() != per {
		t.Errorf("acts reserved %d, waiting %d, peak %d; want 0, 0, %d", acts.Reserved(), acts.Waiting(), acts.Peak(), per)
	}
	checkExited(t, run0, ex0.Queue)
	checkExited(t, run1, ex1.Queue)
}
