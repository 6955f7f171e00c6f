package core

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/executor"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// System is one assembled serving system: executors, pools, queues, and
// the inference controller, bound to a simulation environment. A System
// is long-lived: Serve runs one request stream to completion, and
// consecutive Serve calls warm-restart the system, reusing the expert
// pools (and host cache) exactly as the previous stream left them
// instead of rebuilding the world per run.
//
// The System is the data plane; the control plane (internal/control)
// plugs in through two seams: Config.Admission decides per arrival
// whether dispatch sees the request at all, and Config.Autoscaler
// resizes the active executor set — the prefix of each kind's executors
// that dispatch assigns to — once per utilization window. Deactivated
// executors keep draining already-assigned work and keep their expert
// pools warm, so scaling back up reuses loaded experts.
type System struct {
	cfg      Config
	m        *coe.Model
	env      *sim.Env
	store    *pool.Store
	recorder *metrics.Recorder

	queues    []*sched.Queue
	executors []*executor.Executor
	pools     []*pool.Pool
	assigner  sched.Assigner

	// holds counts, per ExpertID, the pools holding the expert (Loaded
	// or Loading); the pools maintain it (pool.New), ExpertResident
	// reads it.
	holds []int32

	gpuActs, cpuActs *memory.Arena

	// activeGPU/activeCPU count the executors dispatch may assign to;
	// activeQueues is their queue set (aliasing queues when everything is
	// active) and activeIdx maps its positions back to global queue
	// indices (nil when the sets coincide). The counts persist across
	// consecutive streams — the autoscaler's between-stream resizing.
	activeGPU, activeCPU int
	activeQueues         []*sched.Queue
	activeIdx            []int

	ctrl    *controller
	picks   []int
	measure bool
	runs    int
	serving bool
	broken  error

	// state is the node's lifecycle state on the cluster seam; epoch
	// advances on every crash so executors mid-batch at the crash
	// instant can tell their results are void (see executor.Epoch).
	// Standalone systems stay NodeUp at epoch 0 forever.
	state NodeState
	epoch int

	// gray is the node's active performance degradation (see gray.go).
	// Nil — the healthy fast path — on every node a fault plan has not
	// touched.
	gray *grayState

	// ownsEnv records whether this System created (and therefore drives)
	// its simulation environment. A joined system (NewSystemInEnv) shares
	// an external env — the cluster layer's arrangement — and is served
	// through JoinStream/Offer/CloseStream instead of Serve.
	ownsEnv bool

	// windowExperts collects the distinct experts dispatched since the
	// last autoscaler window boundary — the working-set width a
	// reachability-aware autoscaler compares against surviving pool
	// capacity. Nil (and unmaintained) unless an autoscaler is configured.
	windowExperts map[coe.ExpertID]struct{}
	// gpuPoolSlots/cpuPoolSlots estimate how many model-average experts
	// one executor's pool holds — the autoscaler's reachability unit.
	gpuPoolSlots, cpuPoolSlots int
}

// NewSystem builds a system for the CoE model under the configuration.
// The system creates and owns its simulation environment; use
// NewSystemInEnv to build a node that joins a shared environment.
func NewSystem(cfg Config, m *coe.Model) (*System, error) {
	return newSystem(cfg, m, sim.NewEnv(), true)
}

// NewSystemInEnv builds a system bound to an externally owned simulation
// environment: the cluster layer's node constructor. The caller owns the
// env lifecycle — it runs the event loop for every stream — so a joined
// system refuses Serve/RunTask and is driven through JoinStream, Offer,
// CloseStream, and StreamReport instead. A system
// built by NewSystem is byte-identical to one built here on a fresh env
// and driven through the same stream.
func NewSystemInEnv(cfg Config, m *coe.Model, env *sim.Env) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("core: NewSystemInEnv needs an environment")
	}
	return newSystem(cfg, m, env, false)
}

func newSystem(cfg Config, m *coe.Model, env *sim.Env, ownsEnv bool) (*System, error) {
	cfg = cfg.normalized()

	var largestWeight, largestGPUAct, largestCPUAct int64
	archs := m.Architectures()
	// perfs holds the profiled costs the queues and executors consult on
	// every prediction and batch group: one row per processor kind (GPU
	// first, then CPU) of one entry per model architecture, indexed by
	// coe.Expert.ArchIndex — a few entries per node instead of a
	// name-keyed matrix lookup per call.
	var perfs []model.Perf
	if cfg.Perf != nil {
		if err := cfg.Perf.Covers(archs); err != nil {
			return nil, err
		}
		perfs = make([]model.Perf, 2*len(archs))
		for i, a := range archs {
			gpu, cpu := cfg.Perf.MustLookup(a.Name, hw.GPU), cfg.Perf.MustLookup(a.Name, hw.CPU)
			perfs[i], perfs[len(archs)+i] = gpu, cpu
			largestWeight = max(largestWeight, a.WeightBytes())
			largestGPUAct = max(largestGPUAct, gpu.ActPerImage)
			largestCPUAct = max(largestCPUAct, cpu.ActPerImage)
		}
	}
	if err := cfg.validate(largestWeight, largestGPUAct, largestCPUAct); err != nil {
		return nil, err
	}
	for _, id := range cfg.Preload {
		if id < 0 || int(id) >= m.NumExperts() {
			return nil, fmt.Errorf("core: preload plan names expert %d outside model %q (%d experts)",
				id, m.Name(), m.NumExperts())
		}
	}

	s := &System{
		cfg:      cfg,
		m:        m,
		env:      env,
		recorder: metrics.NewRecorder(),
		measure:  cfg.PreschedPicks == nil,
		ownsEnv:  ownsEnv,
		holds:    make([]int32, m.NumExperts()),
	}
	s.store = pool.NewStore(s.env, cfg.Device, cfg.Alloc.HostCacheBytes)
	if cfg.PreschedPicks != nil {
		s.assigner = sched.NewReplay(cfg.PreschedPicks)
	} else {
		s.assigner = cfg.Variant.assigner()
	}

	s.gpuActs = memory.NewArena("gpu/acts", cfg.Alloc.GPUActBytes)
	s.cpuActs = memory.NewArena("cpu/acts", cfg.Alloc.CPUActBytes)
	gpuCompute := sim.NewResource(s.env, "gpu/compute", 1)
	cpuCompute := sim.NewResource(s.env, "cpu/compute", 1)

	// prefix namespaces executor, queue, and pool names per node when the
	// system is one of several sharing an env ("node0/gpu1"); empty — and
	// absent from every name — in the single-node arrangement.
	prefix := ""
	if cfg.ID != "" {
		prefix = cfg.ID + "/"
	}

	// Shared-pool variants use one pool per processor; otherwise each
	// executor owns a pool.
	var sharedGPU, sharedCPU *pool.Pool
	if cfg.Variant.sharedPools() {
		sharedGPU = pool.New(prefix+"gpu-shared", cfg.Alloc.GPUExpertBytes, s.store, memory.TierGPU, cfg.evictPolicy(), s.env.Now, s.holds)
		s.pools = append(s.pools, sharedGPU)
		if cfg.CPUExecutors > 0 {
			sharedCPU = pool.New(prefix+"cpu-shared", cfg.Alloc.CPUExpertBytes, s.store, memory.TierCPU, cfg.evictPolicy(), s.env.Now, s.holds)
			s.pools = append(s.pools, sharedCPU)
		}
	}

	build := func(i int, kind hw.ProcKind) {
		var (
			name    string
			tier    memory.Tier
			poolCap int64
			acts    *memory.Arena
			compute *sim.Resource
			pl      *pool.Pool
			perf    []model.Perf
		)
		proc := cfg.Device.Proc(kind)
		if kind == hw.GPU {
			name = fmt.Sprintf("%sgpu%d", prefix, i)
			tier = memory.TierGPU
			poolCap = cfg.Alloc.GPUExpertBytes / int64(cfg.GPUExecutors)
			acts = s.gpuActs
			compute = gpuCompute
			pl = sharedGPU
			perf = perfs[:len(archs)]
		} else {
			name = fmt.Sprintf("%scpu%d", prefix, i)
			tier = memory.TierCPU
			poolCap = cfg.Alloc.CPUExpertBytes / int64(cfg.CPUExecutors)
			acts = s.cpuActs
			compute = cpuCompute
			pl = sharedCPU
			perf = perfs[len(archs):]
		}
		if pl == nil {
			pl = pool.New(name, poolCap, s.store, tier, cfg.evictPolicy(), s.env.Now, s.holds)
			s.pools = append(s.pools, pl)
		}
		q := sched.NewQueue(s.env, name, cfg.Variant.queueMode(), sched.Costs{
			K:           func(e *coe.Expert) time.Duration { return perf[e.ArchIndex()].K },
			B:           func(e *coe.Expert) time.Duration { return perf[e.ArchIndex()].B },
			PredictLoad: func(e *coe.Expert) time.Duration { return s.store.PredictLoad(e, tier) },
			IsLoaded:    pl.IsLoaded,
		})
		ex := &executor.Executor{
			Name: name,
			Proc: executor.ProcProfile{
				Exec:        func(a model.Architecture, n int) time.Duration { return model.ExecLatency(a, proc, n) },
				ActPerImage: func(a model.Architecture) int64 { return model.ActBytesPerImage(a, proc) },
			},
			Queue:   q,
			Pool:    pl,
			Compute: compute,
			Acts:    acts,
			Perf:    func(e *coe.Expert) model.Perf { return perf[e.ArchIndex()] },
			Done:    s.streamDone,
			OnBatch: s.onBatch,
			Epoch:   s.Epoch,
			OnVoid:  s.onVoid,
			Degrade: s.degrade,
		}
		s.queues = append(s.queues, q)
		s.executors = append(s.executors, ex)
	}
	for i := 0; i < cfg.GPUExecutors; i++ {
		build(i, hw.GPU)
	}
	for i := 0; i < cfg.CPUExecutors; i++ {
		build(i, hw.CPU)
	}
	if cfg.Trace != nil {
		for _, pl := range s.pools {
			pl := pl
			pl.Observer = func(e *coe.Expert, source string, elapsed time.Duration) {
				cfg.Trace.Add(trace.Event{
					At: s.env.Now().Duration(), Kind: trace.KindSwitch,
					Actor: pl.Name(), Expert: int32(e.ID), Dur: elapsed, Detail: source,
				})
			}
		}
		for _, ex := range s.executors {
			ex := ex
			ex.Observer = func(e *coe.Expert, n int, lat time.Duration) {
				cfg.Trace.Add(trace.Event{
					At: s.env.Now().Duration(), Kind: trace.KindBatch,
					Actor: ex.Name, Expert: int32(e.ID), N: n, Dur: lat,
				})
			}
		}
	}

	if cfg.Autoscaler != nil && !cfg.Variant.sharedPools() {
		// Reachability inputs for the autoscaler: the working-set tracker
		// and the per-executor expert-slot estimate (pool capacity over
		// the model's mean expert size). Only maintained when a control
		// plane is on — the bare data path stays untouched. Shared-pool
		// variants are excluded: their one pool keeps its full capacity
		// at any active count, so scale-down never loses reachability and
		// the guard correctly stands down on a zero working set.
		s.windowExperts = make(map[coe.ExpertID]struct{})
		if n := m.NumExperts(); n > 0 {
			if mean := m.TotalWeightBytes() / int64(n); mean > 0 {
				s.gpuPoolSlots = int(cfg.Alloc.GPUExpertBytes / int64(cfg.GPUExecutors) / mean)
				if cfg.CPUExecutors > 0 {
					s.cpuPoolSlots = int(cfg.Alloc.CPUExpertBytes / int64(cfg.CPUExecutors) / mean)
				}
			}
		}
	}

	s.recorder.SetWindow(cfg.Window)
	if cfg.Percentiles == PercentilesSketch {
		s.recorder.UseSketch()
	}
	s.setActive(cfg.GPUExecutors, cfg.CPUExecutors)
	s.initializeExperts()
	return s, nil
}

// Env returns the simulation environment the system is bound to.
func (s *System) Env() *sim.Env { return s.env }

// OwnsEnv reports whether the system created its environment (NewSystem)
// or joined an external one (NewSystemInEnv).
func (s *System) OwnsEnv() bool { return s.ownsEnv }

// setActive resizes the active executor set to the first gpu GPU and
// first cpu CPU executors, clamped to the built topology (at least one
// GPU executor stays active). Queues outside the active set stop
// receiving assignments but their executors keep draining queued work,
// and their pools keep loaded experts resident for later reactivation.
func (s *System) setActive(gpu, cpu int) {
	gpu = min(max(gpu, 1), s.cfg.GPUExecutors)
	cpu = min(max(cpu, 0), s.cfg.CPUExecutors)
	s.activeGPU, s.activeCPU = gpu, cpu
	if gpu == s.cfg.GPUExecutors && cpu == s.cfg.CPUExecutors {
		s.activeQueues, s.activeIdx = s.queues, nil
		return
	}
	if s.activeIdx == nil {
		s.activeQueues = nil // was aliasing s.queues; start a private set
	}
	s.activeQueues, s.activeIdx = s.activeQueues[:0], s.activeIdx[:0]
	for i := 0; i < gpu; i++ {
		s.activeQueues = append(s.activeQueues, s.queues[i])
		s.activeIdx = append(s.activeIdx, i)
	}
	for i := 0; i < cpu; i++ {
		gi := s.cfg.GPUExecutors + i
		s.activeQueues = append(s.activeQueues, s.queues[gi])
		s.activeIdx = append(s.activeIdx, gi)
	}
}

// Active reports the active executor counts per kind — the topology the
// autoscaler has currently selected.
func (s *System) Active() (gpu, cpu int) { return s.activeGPU, s.activeCPU }

// Queued implements control.View: the backlog across active queues.
func (s *System) Queued() int {
	n := 0
	for _, q := range s.activeQueues {
		n += q.Len()
	}
	return n
}

// PredictLatency implements control.View: the predicted end-to-end
// latency of a request admitted now. Its current stage is priced as the
// best queue's predicted finish time plus the stage's predicted added
// cost (sched.Queue.Predict); remaining stages add their best-queue
// predicted cost alone — optimistic, which is the right bias for
// shedding: a request rejected under an optimistic prediction was
// certain to miss.
func (s *System) PredictLatency(r *coe.Request) time.Duration {
	now := s.env.Now()
	var total time.Duration
	for stage := r.Stage(); stage < r.Stages(); stage++ {
		e := s.m.Expert(r.Chain[stage])
		best := time.Duration(-1)
		for _, q := range s.activeQueues {
			d := q.Predict(e)
			if stage == r.Stage() {
				d += q.FinishTime(now).Sub(now)
			}
			if best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// initializeExperts preloads experts into pools round-robin in
// descending usage-probability order until every pool is full (§4.1,
// "Experts are distributed into each executor in a round-robin manner,
// prioritized by descending usage probabilities"). A non-nil
// Config.Preload replaces the usage order with an explicit plan — the
// cluster placement hook — preloaded round-robin in plan order.
func (s *System) initializeExperts() {
	if s.cfg.Variant.coldStart() {
		return
	}
	order := s.m.ExpertsByUsage()
	if s.cfg.Preload != nil {
		order = make([]*coe.Expert, len(s.cfg.Preload))
		for i, id := range s.cfg.Preload {
			order[i] = s.m.Expert(id)
		}
	}
	full := make([]bool, len(s.pools))
	next := 0
	for _, e := range order {
		placed := false
		for try := 0; try < len(s.pools); try++ {
			i := (next + try) % len(s.pools)
			if full[i] {
				continue
			}
			if s.pools[i].Preload(e) {
				next = (i + 1) % len(s.pools)
				placed = true
				break
			}
			full[i] = true
		}
		if !placed {
			allFull := true
			for _, f := range full {
				if !f {
					allFull = false
					break
				}
			}
			if allFull {
				break
			}
		}
	}
	for _, pl := range s.pools {
		pl.ResetStats()
	}
}

// Queues exposes the executor queues (read-only use).
func (s *System) Queues() []*sched.Queue { return s.queues }

// Pools exposes the executor pools (read-only use).
func (s *System) Pools() []*pool.Pool { return s.pools }

// LoadedExperts reports the number of preloaded experts across pools.
func (s *System) LoadedExperts() int {
	n := 0
	for _, pl := range s.pools {
		n += pl.Loaded()
	}
	return n
}

// ExpertResident reports whether the expert is resident — Loaded or with
// a load in flight — in any of the system's pools. Cluster routers use
// it for expert-affinity placement of arriving requests, asking every
// node on every arrival, so it is one read of the residency count the
// pools keep current rather than a probe of each pool.
func (s *System) ExpertResident(id coe.ExpertID) bool { return s.holds[id] > 0 }

// dispatch assigns a request's current stage to a queue (§4.2). The
// assigner only sees the active queue set — the autoscaler's scaling
// hook — and picks are recorded as global queue indices. The wall-clock
// cost of the decision is the Figure 19 scheduling overhead.
func (s *System) dispatch(r *coe.Request) {
	e := s.m.Expert(r.Expert())
	var start time.Time
	if s.measure {
		//detlint:allow deliberate wall-clock probe: the Figure 19 sched-cost measurement, gated by s.measure and never part of table output
		start = time.Now()
	}
	idx := s.assigner.Pick(s.env.Now(), s.activeQueues, e)
	if s.activeIdx != nil {
		idx = s.activeIdx[idx]
	}
	s.queues[idx].Enqueue(e, r)
	if s.measure {
		//detlint:allow deliberate wall-clock probe: closes the sched-cost measurement opened above
		s.recorder.SchedOp(time.Since(start))
	}
	if s.windowExperts != nil {
		s.windowExperts[e.ID] = struct{}{}
	}
	if s.cfg.Admission != nil {
		// The backlog bound the control plane enforced, observable as the
		// report's peak queue depth. Sampled on every dispatch — arrivals
		// and stage re-dispatches — only when the control plane is on, so
		// the bare data path does not pay for it.
		if q := s.Queued(); q > s.ctrl.peakQueued {
			s.ctrl.peakQueued = q
		}
	}
	if !s.cfg.DisablePicks {
		s.picks = append(s.picks, idx)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: s.env.Now().Duration(), Kind: trace.KindAssign,
			Actor: s.queues[idx].Name(), Request: r.ID, Expert: int32(e.ID),
		})
	}
}

// streamDone reports whether the current stream has fully completed —
// the executors' exit condition. A crashed node's executors also stand
// down: its queues were purged and its in-flight work voided.
func (s *System) streamDone() bool {
	return s.state == NodeDown || (s.ctrl != nil && s.ctrl.finished)
}

// onBatch forwards stage completions to the active stream's controller.
func (s *System) onBatch(now sim.Time, r *coe.Request) {
	s.ctrl.onBatch(now, r)
}

// onVoid forwards crash-voided batch requests to the controller's drop
// path: accounted, recycled, never acked.
func (s *System) onVoid(now sim.Time, r *coe.Request) {
	s.ctrl.drop(now, r)
}

// Serve runs one request stream to completion and returns its report.
// The first Serve runs against the freshly initialized pools (§4.1);
// consecutive Serve calls warm-restart the system — the virtual clock
// continues and the pools keep whatever experts the previous stream
// left resident, so a follow-up stream with a similar working set pays
// far fewer expert switches than a cold rebuild. Per-stream statistics
// (recorder, executor and pool counters, assignment picks) are reset at
// each restart; a stream that ends with requests still in flight
// poisons the System and fails all further calls.
func (s *System) Serve(src workload.Source) (*Report, error) {
	if !s.ownsEnv {
		return nil, fmt.Errorf("core: Serve on a system joined to an external env; the env owner drives it through JoinStream")
	}
	if err := s.checkStream(); err != nil {
		return nil, err
	}
	if workload.IsUnbounded(src) {
		// An infinite source would keep the arrival loop alive forever;
		// the admission loop has no way to stop it.
		return nil, fmt.Errorf("core: stream %q is unbounded; wrap it in workload.Horizon to give it a terminating horizon",
			src.Name())
	}
	if m, ok := src.(interface{ Model() *coe.Model }); ok && m.Model() != nil && m.Model() != s.m {
		return nil, fmt.Errorf("core: stream %q draws from model %q, system serves %q",
			src.Name(), m.Model().Name(), s.m.Name())
	}
	s.serving = true
	defer func() { s.serving = false }()

	if s.runs > 0 {
		// Warm restart: zero the per-stream statistics, keeping the
		// recorder's sample buffers. Pool contents — the warm state — are
		// deliberately kept.
		s.resetStream()
	}
	s.runs++
	s.beginStream(src, nil)
	s.ctrl.admit()
	s.env.Run()

	if !s.ctrl.finished {
		s.broken = fmt.Errorf("core: stream %q ended with %d of %d requests incomplete",
			src.Name(), s.ctrl.admitted-s.ctrl.completed, s.ctrl.admitted)
		return nil, s.broken
	}
	return s.report(src.Name()), nil
}

// checkStream rejects stream starts on a system that cannot take one.
func (s *System) checkStream() error {
	if s.broken != nil {
		return s.broken
	}
	if s.serving {
		return fmt.Errorf("core: stream started re-entrantly")
	}
	if s.runs > 0 && s.cfg.PreschedPicks != nil {
		// A replay system reissues one recorded assignment sequence; a
		// second stream would run past it.
		return fmt.Errorf("core: a pre-scheduled (replay) system serves exactly one stream")
	}
	return nil
}

// resetStream zeroes the per-stream statistics for a warm restart,
// keeping the recorder's sample buffers and — deliberately — the pool
// contents, the warm state.
func (s *System) resetStream() {
	s.recorder.Reset()
	s.picks = s.picks[:0]
	// Experts dispatched after the previous stream's last window
	// boundary must not inflate the next stream's first working-set
	// sample (clear is a no-op on a nil map).
	clear(s.windowExperts)
	for _, ex := range s.executors {
		ex.ResetStats()
	}
	for _, pl := range s.pools {
		pl.ResetStats()
	}
}

// beginStream arms one stream: a fresh controller (with the delegate for
// externally fed streams), admission reset, the stream trace marker, and
// the executor runs and autoscaler loop. The caller then starts the
// arrival loop — the controller's own for Serve, the cluster's router
// loop for joined systems — and runs the env.
func (s *System) beginStream(src workload.Source, d StreamDelegate) {
	// A node left Down, Draining, or gray-degraded by a previous
	// stream's faults starts the next stream healthy — the operator
	// reset between streams.
	s.state = NodeUp
	s.gray = nil
	s.ctrl = newController(s, src)
	s.ctrl.delegate = d
	if s.cfg.Admission != nil {
		s.cfg.Admission.Reset(s.env.Now())
	}
	if s.cfg.Trace != nil {
		// Delimit consecutive streams: request IDs restart per stream.
		s.cfg.Trace.Add(trace.Event{
			At: s.env.Now().Duration(), Kind: trace.KindStream, Detail: s.ctrl.stream,
		})
	}
	for _, ex := range s.executors {
		ex.Start(s.env)
	}
	if s.cfg.Autoscaler != nil {
		s.startAutoscale()
	}
}

// StreamDelegate observes a joined system's stream from the outside —
// the cluster layer's completion hook. RequestDone fires once per
// request, at the virtual instant its final stage completes, after the
// node's own accounting. The node recycles r once RequestDone returns,
// so a delegate keeps copies, never the pointer.
type StreamDelegate interface {
	RequestDone(now sim.Time, r *coe.Request)
}

// JoinStream arms a joined system (NewSystemInEnv) for one externally
// fed stream named stream: per-stream statistics are reset, the
// executors are launched into the shared env, and subsequent Offer calls
// feed arrivals in. The env owner closes the stream with CloseStream
// once the arrival loop is exhausted and collects the node's slice of
// the run with StreamReport after the env drains.
func (s *System) JoinStream(stream string, d StreamDelegate) error {
	if s.ownsEnv {
		return fmt.Errorf("core: JoinStream on a system that owns its env; use Serve")
	}
	if err := s.checkStream(); err != nil {
		return err
	}
	s.serving = true
	if s.runs > 0 {
		s.resetStream()
	}
	s.runs++
	s.beginStream(namedStream(stream), d)
	return nil
}

// namedStream is the placeholder source of a joined stream: it only
// carries the stream name (requests arrive through Offer, not Next).
type namedStream string

func (n namedStream) Name() string                      { return string(n) }
func (namedStream) Next() (workload.TimedRequest, bool) { return workload.TimedRequest{}, false }

// Offer feeds one externally routed arrival into the node's admission
// and dispatch path at now, the current virtual time, exactly as the
// node's own arrival loop would. On admission it returns a lease
// receipt — the node now holds the request and will ack its completion
// through the stream delegate's RequestDone, unless a crash voids the
// lease first — with ok true. A rejected request leaves only a
// rejection mark; a node that is not Up refuses the offer outright,
// leaving no mark at all (the dispatcher should not have routed here).
// Unless the node refused it outright, the node owns tr.Req once Offer
// returns and recycles it on rejection, completion, or crash-void.
// Offer must only be called between JoinStream and CloseStream, from
// a handler of the shared env.
func (s *System) Offer(now sim.Time, tr workload.TimedRequest) (Lease, bool) {
	if s.state != NodeUp {
		return Lease{}, false
	}
	if !s.ctrl.offer(now, tr) {
		return Lease{}, false
	}
	return Lease{Request: tr.Req.ID, Node: s.cfg.ID, Issued: now, Epoch: s.epoch}, true
}

// CloseStream marks a joined stream's arrivals exhausted: once
// the node's admitted requests drain, its executors shut down. Called by
// the env owner when the cluster-wide source closes.
func (s *System) CloseStream() {
	c := s.ctrl
	c.closed = true
	if c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// StreamReport ends a joined stream after the shared env has drained and
// returns the node's slice of the run. A stream that ended with requests
// still in flight poisons the system, like a broken Serve.
func (s *System) StreamReport() (*Report, error) {
	if !s.serving {
		return nil, fmt.Errorf("core: StreamReport without a joined stream")
	}
	s.serving = false
	if !s.ctrl.finished {
		s.broken = fmt.Errorf("core: stream %q ended with %d of %d requests incomplete on %s",
			s.ctrl.stream, s.ctrl.admitted-s.ctrl.completed-s.ctrl.dropped, s.ctrl.admitted, s.cfg.ID)
		return nil, s.broken
	}
	return s.report(s.ctrl.stream), nil
}

// startAutoscale arms the control-plane loop: once per window it samples
// each kind's busy fraction over the window and the standing backlog,
// asks the autoscaler for the desired active counts, and applies them.
// The loop is a self-rescheduling callback armed from a start event at
// the current instant, and it stops once the stream has finished. The
// active counts persist across consecutive streams, so a follow-up
// stream starts on the topology the previous one converged to — with
// the deactivated executors' pools still warm.
func (s *System) startAutoscale() {
	window := s.cfg.Window
	lastBusy := make([]time.Duration, len(s.executors))
	// Busy fraction per kind over the window's active executors.
	// Inactive executors may still be draining leftover work; their
	// snapshots advance but do not count toward utilization.
	busyOver := func(from, count int) float64 {
		var busy time.Duration
		for i := from; i < from+count; i++ {
			busy += s.executors[i].BusyTime() - lastBusy[i]
		}
		if count == 0 {
			return 0
		}
		return busy.Seconds() / (window.Seconds() * float64(count))
	}
	snapshot := func() {
		for i, ex := range s.executors {
			lastBusy[i] = ex.BusyTime()
		}
	}
	var tick func()
	tick = func() {
		if s.ctrl.finished {
			return
		}
		u := control.Utilization{
			Window:       window,
			GPUBusy:      busyOver(0, s.activeGPU),
			CPUBusy:      busyOver(s.cfg.GPUExecutors, s.activeCPU),
			Queued:       s.Queued(),
			WorkingSet:   len(s.windowExperts),
			GPUPoolSlots: s.gpuPoolSlots,
			CPUPoolSlots: s.cpuPoolSlots,
		}
		clear(s.windowExperts)
		snapshot()
		g, c := s.cfg.Autoscaler.Scale(s.env.Now(), u, s.activeGPU, s.activeCPU)
		s.setActive(g, c)
		s.env.After(window, tick)
	}
	s.env.After(0, func() {
		snapshot()
		s.env.After(window, tick)
	})
}

// Runs reports how many streams the system has served.
func (s *System) Runs() int { return s.runs }

// RunTask serves the task's closed-loop fixed-period stream — the
// paper's arrival shape — and returns the report. It is Serve over
// Task.Stream; like Serve, it may be called repeatedly for consecutive
// tasks on warm pools.
func (s *System) RunTask(task workload.Task) (*Report, error) {
	src, err := task.Stream()
	if err != nil {
		return nil, err
	}
	return s.Serve(src)
}
