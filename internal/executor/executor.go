// Package executor implements inference executors (§4.1 steps 4–8): an
// executor drains a request queue, ensures the required expert is
// resident (triggering managed expert switches), splits work into
// batches bounded by profiled maximum batch size and free activation
// memory, and executes them on the shared compute resource of its
// processor.
//
// An executor runs as a state machine on the simulation kernel: each
// launch (Start) is a Run, a sim.Message that the
// kernel delivers whenever the executor may proceed — work arrived at
// its queue's gate, a sharer's load of its expert finished, a transfer
// leg's resource freed or its hold ended, activation memory was
// reserved, the compute unit freed, or a batch completed. Between those
// points the run is just data.
package executor

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Executor drives one inference pipeline on a GPU or CPU.
type Executor struct {
	// Name identifies the executor ("gpu0", "cpu1", ...).
	Name string
	// Proc is the processor profile the executor runs on.
	Proc ProcProfile
	// Queue is the executor's request queue, fed by the controller.
	Queue *sched.Queue
	// Pool holds the executor's resident experts.
	Pool *pool.Pool
	// Compute serializes execution with the other executors sharing the
	// physical processor.
	Compute *sim.Resource
	// Acts is the activation-memory arena shared by the executors of
	// this processor (the §3.3 intermediate-results budget).
	Acts *memory.Arena
	// Perf returns the profiled performance entry for an expert.
	Perf func(e *coe.Expert) model.Perf
	// Done reports whether the task has fully completed; the executor
	// exits when its queue is empty and Done is true.
	Done func() bool
	// OnBatch is called after a batch finishes, once per request, in
	// queue order. The controller advances multi-stage requests and
	// records completions here.
	OnBatch func(now sim.Time, r *coe.Request)
	// Observer, when set, is invoked once per executed batch.
	Observer func(e *coe.Expert, n int, lat time.Duration)
	// Epoch, when set, reports the data plane's crash epoch. The run
	// snapshots it before taking a batch; if it changed by the batch's
	// completion — the node crashed mid-batch — the batch's results
	// are discarded and its requests handed to OnVoid instead of
	// OnBatch, so a since-restarted node never acks work the crash
	// voided. Nil on fault-free systems (the zero-cost default).
	Epoch func() int
	// OnVoid receives the requests of a batch voided by a mid-execution
	// crash, once per request, in queue order. Required when Epoch is
	// set.
	OnVoid func(now sim.Time, r *coe.Request)
	// Degrade, when set, maps a batch's profiled execution latency to the
	// latency actually served — the gray-failure seam. It is consulted
	// once per batch, after the busy-until estimate is published but
	// before execution: the executor's own prediction stays at the
	// healthy profile number because a gray-degraded node does not know
	// it is sick. That gap — real completions stretching while the
	// node's self-model keeps promising fast — is what makes fail-slow
	// invisible to model-driven routing and is the whole reason health
	// must be measured from completions. A healthy node returns lat
	// unchanged.
	Degrade func(now sim.Time, lat time.Duration) time.Duration

	processed int64
	batches   int64
	busy      time.Duration
}

// ProcProfile is the subset of the hardware profile executors need.
type ProcProfile struct {
	// Exec returns ground-truth execution latency for a batch.
	Exec func(arch model.Architecture, batch int) time.Duration
	// ActPerImage returns ground-truth activation bytes per image.
	ActPerImage func(arch model.Architecture) int64
}

// Processed reports the number of requests executed.
func (ex *Executor) Processed() int64 { return ex.processed }

// Batches reports the number of batches executed.
func (ex *Executor) Batches() int64 { return ex.batches }

// BusyTime reports cumulative virtual execution time (excluding loads).
func (ex *Executor) BusyTime() time.Duration { return ex.busy }

// ResetStats zeroes the per-run counters. The serving layer calls it
// between consecutive streams so each report covers one stream.
func (ex *Executor) ResetStats() {
	ex.processed, ex.batches, ex.busy = 0, 0, 0
}

// Start launches a run of the executor on env: the run begins at the
// current instant, behind the events already scheduled for it, and
// ends once its queue is empty and Done reports true, or once the crash
// epoch moves past the one it began in. Each launch is a separate Run,
// so a crashed epoch's run can finish its in-flight batch while the
// restarted node's run serves the queue.
func (ex *Executor) Start(env *sim.Env) *Run {
	if ex.OnBatch == nil || ex.Done == nil || (ex.Epoch != nil && ex.OnVoid == nil) {
		panic(fmt.Sprintf("executor %s: incomplete wiring", ex.Name))
	}
	r := &Run{ex: ex, env: env}
	env.PostMsg(env.Now(), r)
	return r
}

// step names the point a Run resumes at when the kernel delivers it.
type step int

const (
	stepBegin   step = iota // the launch event: snapshot the epoch
	stepNext                // pick the next head group, or wait on the gate
	stepPin                 // pin the group's expert, or wait on a sharer's load
	stepLeg                 // acquire the current transfer leg's resource
	stepLegDone             // the leg's hold ended: release, go to the next
	stepBatch               // take the next batch of the pinned group
	stepExec                // activation memory reserved: price the batch
	stepCompute             // acquire the compute unit and execute
	stepDone                // the batch completed
	stepExited              // the run has ended
)

// Run is one launch of an executor: its serving loop's state between
// kernel deliveries.
type Run struct {
	ex    *Executor
	env   *sim.Env
	step  step
	epoch int // the crash epoch the run began in

	// The group in service, its expert (pinned from stepBatch on), and
	// the expert's profile.
	g    *sched.Group
	e    *coe.Expert
	perf model.Perf

	// The expert switch in flight and its current leg.
	load pool.Load
	leg  int

	// The batch in flight.
	batch      []*coe.Request
	batchEpoch int
	actBytes   int64
	lat        time.Duration
}

// Exited reports whether the run has ended.
func (r *Run) Exited() bool { return r.step == stepExited }

// String names the run by its executor, for resource panics.
func (r *Run) String() string { return r.ex.Name }

// Deliver implements sim.Message: it advances the run from the point it
// waited at until it waits again or exits.
func (r *Run) Deliver(sim.Time) {
	for r.advance() {
	}
}

// advance performs one step and reports whether the run can go on at
// once (false: it is queued on a gate, event, resource, or arena, or
// has an event posted, or has exited).
func (r *Run) advance() bool {
	ex := r.ex
	switch r.step {
	case stepBegin:
		if ex.Epoch != nil {
			r.epoch = ex.Epoch()
		}
		r.step = stepNext
	case stepNext:
		if ex.Epoch != nil && ex.Epoch() != r.epoch {
			// This run belongs to a crashed epoch: the node restarted and
			// launched a replacement. Exit so the executor is never served
			// by two runs at once.
			r.step = stepExited
			return false
		}
		g := ex.Queue.Head()
		if g == nil {
			if ex.Done() {
				r.step = stepExited
				return false
			}
			ex.Queue.Gate().Wait(r)
			return false
		}
		r.g, r.e = g, g.Expert
		r.perf = ex.Perf(r.e)
		r.step = stepPin
	case stepPin:
		pinned, loading := ex.Pool.TryPin(r.e)
		switch {
		case pinned:
			r.step = stepBatch
		case loading != nil:
			loading.Wait(r)
			return false
		default:
			r.load, r.leg = ex.Pool.StartLoad(r.e), 0
			r.step = stepLeg
		}
	case stepLeg:
		legs := r.load.Transfer.Legs()
		if r.leg == len(legs) {
			ex.Pool.FinishLoad(&r.load)
			r.load = pool.Load{}
			r.step = stepBatch
			return true
		}
		leg := legs[r.leg]
		if !leg.Res.Acquire(r) {
			return false
		}
		r.env.PostMsg(r.env.Now().Add(leg.Hold), r)
		r.step = stepLegDone
		return false
	case stepLegDone:
		r.load.Transfer.Legs()[r.leg].Res.Release(r)
		r.leg++
		r.step = stepLeg
	case stepBatch:
		// The head group may keep growing while we execute (same-expert
		// arrivals slot in behind it as fresh groups; see sched). We drain
		// only this group; stepNext picks up successors.
		g := r.g
		if ex.Queue.Head() != g || g.Len() == 0 {
			r.endGroup()
			return true
		}
		if ex.Epoch != nil {
			r.batchEpoch = ex.Epoch()
		}
		bound := sched.SplitBound(r.perf.MaxBatch, ex.Acts.Free(), r.perf.ActPerImage)
		r.batch = ex.Queue.TakeFromHead(bound)
		if len(r.batch) == 0 {
			r.endGroup()
			return true
		}
		r.actBytes = r.perf.ActPerImage * int64(len(r.batch))
		r.step = stepExec
		return ex.Acts.WaitReserve(r.env, r, r.actBytes)
	case stepExec:
		now := r.env.Now()
		lat := ex.Proc.Exec(r.e.Arch, len(r.batch))
		ex.Queue.SetBusyUntil(now.Add(lat + r.g.PredictedRemaining()))
		if ex.Degrade != nil {
			lat = ex.Degrade(now, lat)
		}
		r.lat = lat
		r.step = stepCompute
	case stepCompute:
		if !ex.Compute.Acquire(r) {
			return false
		}
		r.env.PostMsg(r.env.Now().Add(r.lat), r)
		r.step = stepDone
		return false
	case stepDone:
		r.finishBatch()
	default:
		panic(fmt.Sprintf("executor %s: delivered after exit", ex.Name))
	}
	return true
}

// endGroup unpins the served group's expert and returns to the head of
// the queue.
func (r *Run) endGroup() {
	r.ex.Pool.Release(r.e.ID)
	r.g, r.e = nil, nil
	r.step = stepNext
}

// finishBatch releases a completed batch's compute unit and activation
// memory and hands its requests on: to OnBatch, or — if the node
// crashed while the batch was in flight — to OnVoid.
func (r *Run) finishBatch() {
	ex, now, batch := r.ex, r.env.Now(), r.batch
	r.batch = nil
	ex.Compute.Release(r)
	ex.Acts.Release(r.actBytes)

	if ex.Epoch != nil && ex.Epoch() != r.batchEpoch {
		// The node crashed while this batch was in flight (waiting for
		// memory, compute, or mid-execution). Its results are void: the
		// crash already purged the queue and the dispatcher is
		// redelivering the node's leases, so handing these to OnBatch
		// would double-serve them. Resources were released above; the
		// batch just produces nothing.
		for _, req := range batch {
			ex.OnVoid(now, req)
		}
		r.endGroup()
		return
	}

	ex.busy += r.lat
	ex.batches++
	ex.processed += int64(len(batch))
	if ex.Observer != nil {
		ex.Observer(r.e, len(batch), r.lat)
	}
	for _, req := range batch {
		ex.OnBatch(now, req)
	}
	r.step = stepBatch
}
