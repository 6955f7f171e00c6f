// Package coserve is a reproduction of "CoServe: Efficient
// Collaboration-of-Experts (CoE) Model Inference with Limited Memory"
// (ASPLOS 2025): a serving system for CoE models on memory-constrained
// heterogeneous CPU+GPU devices, evaluated on a simulated device with
// cost models calibrated to the paper's measurements.
//
// The package is a facade over the internal implementation. A typical
// session mirrors the paper's three phases:
//
//	dev := coserve.NUMADevice()                       // pick a platform
//	board, _ := coserve.BoardA().Build()              // a CoE model + workload
//	perf, _ := coserve.Profile(dev, coserve.EvalArchitectures()) // offline phase
//	g, c := coserve.DefaultExecutors(dev)
//	cfg := coserve.Config{
//		Device: dev, Variant: coserve.CoServe,
//		GPUExecutors: g, CPUExecutors: c,
//		Alloc: coserve.CasualAllocation(dev, perf, g, c), Perf: perf,
//	}
//	srv, _ := coserve.NewServer(cfg, board.Model)     // system initialization
//	report, _ := srv.RunTask(coserve.TaskA1(board))   // online phase
//	fmt.Printf("%.1f img/s, %d expert switches\n", report.Throughput, report.Switches)
//
// A Server is long-lived: beyond the paper's closed-loop tasks it serves
// arbitrary arrival processes (Source), and consecutive Serve/RunTask
// calls warm-restart it on already-loaded expert pools:
//
//	cfg.SLO = 500 * time.Millisecond                  // latency objective
//	srv, _ := coserve.NewServer(cfg, board.Model)
//	src, _ := coserve.Poisson{Name: "open", Board: board, Rate: 40, N: 5000, Seed: 1}.NewSource()
//	report, _ := srv.Serve(src)                       // open-loop stream
//	fmt.Printf("p99 %.3fs, %.1f%% in SLO\n", report.Latency.P99, 100*report.SLOAttainment)
//	report2, _ := srv.RunTask(coserve.TaskA1(board))  // consecutive, warm pools
//
// Bursty traffic (Bursty), multi-tenant mixes (Mix), and fused
// multi-board models (MergeBoards) compose the same way. Under
// overload, the control plane plugs in through Config: an
// AdmissionPolicy (bounded queue, token bucket, SLO-aware shedding)
// decides per arrival what the server accepts, and an Autoscaler
// resizes the active executor set on windowed utilization — both off by
// default:
//
//	cfg.Admission, _ = coserve.NewDeadlineShed(cfg.SLO)  // shed predicted misses
//	cfg.Autoscaler, _ = coserve.NewHysteresisScaler(0.3, 0.85)
//	steady, _ := coserve.Steady{Name: "line", Board: board, Rate: 40, Seed: 1}.NewSource()
//	report3, _ := srv.Serve(coserve.Horizon(steady, time.Minute))
//	fmt.Printf("rejected %.1f%%\n", 100*report3.RejectionRate)
//
// Custom CoE models are assembled with NewModelBuilder; custom
// workloads with the Task type. The experiments subcommand of
// cmd/coserve regenerates every table and figure of the paper through
// the same API.
package coserve

import (
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Device is a hardware platform profile (the paper's Table 1 systems or
// a custom one).
type Device = hw.Device

// NUMADevice returns the paper's NUMA platform (RTX 3080 Ti + Xeon).
func NUMADevice() *Device { return hw.NUMADevice() }

// UMADevice returns the paper's UMA platform (Apple M2).
func UMADevice() *Device { return hw.UMADevice() }

// DeviceByName resolves "numa", "uma", or a full profile name.
func DeviceByName(name string) (*Device, error) { return hw.ByName(name) }

// Architecture describes an expert model architecture.
type Architecture = model.Architecture

// Built-in expert architectures (§5.1).
var (
	ResNet101 = model.ResNet101
	YOLOv5m   = model.YOLOv5m
	YOLOv5l   = model.YOLOv5l
)

// EvalArchitectures returns the architectures of the paper's workload.
func EvalArchitectures() []Architecture {
	return []Architecture{model.ResNet101, model.YOLOv5m, model.YOLOv5l}
}

// Model is an immutable CoE model: experts, dependencies, and routing.
type Model = coe.Model

// ModelBuilder assembles a CoE model.
type ModelBuilder = coe.Builder

// NewModelBuilder returns an empty CoE model builder.
func NewModelBuilder(name string) *ModelBuilder { return coe.NewBuilder(name) }

// Expert roles for ModelBuilder.AddExpert.
const (
	Preliminary = coe.Preliminary
	Subsequent  = coe.Subsequent
)

// Rule is a routing rule: classifier, optional detector, pass
// probability.
type Rule = coe.Rule

// NoExpert marks the absence of a detection stage in a Rule.
const NoExpert = coe.NoExpert

// Request is one inference request traveling a CoE pipeline.
type Request = coe.Request

// RequestArena is an optional free-list of Request objects. Attach one
// to a workload spec (Poisson/Bursty/Steady .Arena) and the source
// leases each request from it instead of allocating; the serving layer
// returns requests on completion or rejection, so steady-state
// allocation is bounded by the in-flight peak rather than stream
// length. One arena feeds one serving stream at a time, but persists
// across consecutive streams and warm restarts.
type RequestArena = coe.Arena

// NewRequestArena returns an empty request arena.
func NewRequestArena() *RequestArena { return coe.NewArena() }

// ComputeUsage fills in expert usage probabilities from a class
// distribution (§4.5); EstimateUsage does the same from sampled chains.
func ComputeUsage(m *Model, classProbs map[int]float64) error {
	return coe.ComputeUsage(m, classProbs)
}

// EstimateUsage estimates usage probabilities from sampled chains.
func EstimateUsage(m *Model, chains [][]coe.ExpertID) { coe.EstimateUsage(m, chains) }

// PerfMatrix is the offline profiler's performance matrix (§4.5).
type PerfMatrix = model.PerfMatrix

// Profile runs the offline microbenchmarks for the architectures on the
// device (§4.4–4.5).
func Profile(dev *Device, archs []Architecture) (PerfMatrix, error) {
	return profiler.Matrix(dev, archs)
}

// Variant selects a serving system design.
type Variant = core.Variant

// System variants (§5.1 baselines and §5.3 ablations).
const (
	Samba         = core.Samba
	SambaFIFO     = core.SambaFIFO
	SambaParallel = core.SambaParallel
	CoServeNone   = core.CoServeNone
	CoServeEM     = core.CoServeEM
	CoServeEMRA   = core.CoServeEMRA
	CoServe       = core.CoServe
)

// Config describes a serving system instance; Allocation divides device
// memory between experts, the host cache, and batch intermediates.
type (
	Config     = core.Config
	Allocation = core.Allocation
)

// PercentileMode selects how latency percentiles are accounted
// (Config.Percentiles, ClusterConfig.Percentiles): PercentilesExact
// stores every sample (the default, used by the golden artifacts);
// PercentilesSketch streams samples into a fixed-size mergeable
// quantile sketch — O(1) memory per stream, rank-exact percentiles
// accurate to ±1% in value.
type PercentileMode = core.PercentileMode

// Percentile accounting modes.
const (
	PercentilesExact  = core.PercentilesExact
	PercentilesSketch = core.PercentilesSketch
)

// Sketch is the fixed-size mergeable latency sketch behind
// PercentilesSketch; Report.LatencySketch and
// ClusterReport.LatencySketch expose the stream's sketch in that mode.
type Sketch = stats.Sketch

// Report summarizes one served stream (throughput, switches, latency
// percentiles, SLO attainment, scheduling overhead).
type Report = core.Report

// TenantStats is one tenant's slice of a multi-tenant stream report.
type TenantStats = core.TenantStats

// Control plane (internal/control): admission policies decide per
// arriving request whether the server accepts it — Config.Admission —
// and an Autoscaler resizes the active executor set per utilization
// window — Config.Autoscaler — with deactivated executors keeping their
// expert pools warm for reactivation. Config.Window sets the windowed
// metrics interval (and the autoscaler's cadence); Report.Windows
// carries the resulting sliding-interval series.
type (
	AdmissionPolicy = control.AdmissionPolicy
	AdmissionView   = control.View
	AcceptAll       = control.AcceptAll
	PolicyOptions   = control.PolicyOptions
	Autoscaler      = control.Autoscaler
	Utilization     = control.Utilization
)

// DefaultControlWindow is the control interval used when an Autoscaler
// is configured without an explicit Config.Window.
const DefaultControlWindow = core.DefaultControlWindow

// NewBoundedQueue returns an admission policy rejecting arrivals once
// max requests are queued.
func NewBoundedQueue(max int) (AdmissionPolicy, error) { return control.NewBoundedQueue(max) }

// NewTokenBucket returns an admission policy rate-limiting admissions
// to rate requests per second with bursts up to burst.
func NewTokenBucket(rate, burst float64) (AdmissionPolicy, error) {
	return control.NewTokenBucket(rate, burst)
}

// NewDeadlineShed returns an admission policy shedding requests whose
// predicted end-to-end latency already exceeds the objective.
func NewDeadlineShed(objective time.Duration) (AdmissionPolicy, error) {
	return control.NewDeadlineShed(objective)
}

// AdmissionPolicyByName builds a policy from its CLI name: "accept",
// "bounded", "token", or "shed".
func AdmissionPolicyByName(name string, opts PolicyOptions) (AdmissionPolicy, error) {
	return control.PolicyByName(name, opts)
}

// NewHysteresisScaler returns an autoscaler growing the active executor
// set above the high busy-fraction threshold (or under backlog) and
// shrinking it below the low one.
func NewHysteresisScaler(low, high float64) (Autoscaler, error) {
	return control.NewHysteresisScaler(low, high)
}

// NewReachableHysteresisScaler is NewHysteresisScaler with the
// reachability guard on: scale-down steps that would leave the
// surviving executors' pools unable to hold the stream's current
// working set are refused, because shedding capacity below the working
// set converts the savings into expert-switch thrashing.
func NewReachableHysteresisScaler(low, high float64) (Autoscaler, error) {
	return control.NewReachableHysteresisScaler(low, high)
}

// NewTenantQuota wraps an admission policy (AcceptAll when nil) with
// independent per-tenant token buckets, so one tenant's overload in a
// multi-tenant Mix cannot starve the others' admission.
func NewTenantQuota(inner AdmissionPolicy, rate, burst float64) (AdmissionPolicy, error) {
	return control.NewTenantQuota(inner, rate, burst)
}

// Server is an assembled serving system bound to a simulated device. A
// Server is long-lived: Serve runs one request stream to completion,
// and consecutive calls warm-restart it on the already-loaded expert
// pools.
type Server = core.System

// NewServer builds a serving system for the CoE model.
func NewServer(cfg Config, m *Model) (*Server, error) { return core.NewSystem(cfg, m) }

// Cluster layer (internal/cluster): one front end serving a stream
// across N nodes, each node a full single-device data plane, all
// sharing one deterministic simulation. ClusterConfig carries one
// node Config per node (heterogeneous fleets are fine) plus the
// routing and placement policies; ClusterReport aggregates the fleet
// view over the per-node reports.
type (
	Cluster          = cluster.Cluster
	ClusterConfig    = cluster.Config
	ClusterReport    = cluster.Report
	ClusterNode      = cluster.Node
	ClusterRouter    = cluster.Router
	ClusterPlacement = cluster.Placement
	NodeCapacity     = cluster.NodeCapacity
)

// NewCluster builds a multi-node serving system for the CoE model: the
// placement plan is computed, then every node joins one shared
// simulation environment. Like a Server, a Cluster is long-lived —
// consecutive ServeStream calls warm-restart the fleet.
func NewCluster(cfg ClusterConfig, m *Model) (*Cluster, error) { return cluster.New(cfg, m) }

// ServeCluster serves one stream across a fresh cluster and returns the
// fleet report — the one-shot form of NewCluster + Cluster.Serve.
func ServeCluster(cfg ClusterConfig, m *Model, src Source) (*ClusterReport, error) {
	cl, err := cluster.New(cfg, m)
	if err != nil {
		return nil, err
	}
	return cl.Serve(src)
}

// UniformNodes returns n copies of the node configuration — the
// homogeneous fleet constructor for ClusterConfig.Nodes.
func UniformNodes(n int, node Config) []Config { return cluster.Uniform(n, node) }

// ClusterRouterByName builds a cluster router from its CLI name:
// "least-loaded" (or ""), "affinity" (prefer nodes whose pools already
// hold the request's expert), or "predict" (lowest predicted latency
// under the §4.2 cost model).
func ClusterRouterByName(name string) (ClusterRouter, error) { return cluster.RouterByName(name) }

// ClusterPlacementByName builds a placement plan from its CLI name:
// "mirror" (or ""), "partition" (every expert one home), or "usage"
// (§4.4-style usage-proportional instance counts across the fleet).
func ClusterPlacementByName(name string) (ClusterPlacement, error) {
	return cluster.PlacementByName(name)
}

// Chaos layer: scripted node fault schedules (ClusterConfig.Faults)
// fired deterministically into a serving cluster. Fail-stop kinds
// (crash/drain/recover) drive the node lifecycle, with lease-tracked
// at-least-once redelivery of a crashed node's outstanding requests and
// exactly-once completion accounting. Gray kinds (slow/jitter/stall)
// degrade a node's service time while it stays Up — invisible to the
// lifecycle layer, countered by HealthConfig (windowed health scores
// plus a circuit breaker) and HedgeConfig (deadline-fired hedged
// redelivery, first completion wins, losers accounted as wasted work).
// A nil or empty FaultPlan injects nothing and leaves every serve path
// byte-identical to the fault-free cluster.
type (
	FaultPlan  = sim.FaultPlan
	FaultEvent = sim.FaultEvent
	FaultKind  = sim.FaultKind
	// HealthConfig enables per-node health scoring and the circuit
	// breaker that quarantines gray-failing nodes (ClusterConfig.Health).
	HealthConfig = cluster.HealthConfig
	// HedgeConfig enables per-request deadlines with hedged redelivery
	// (ClusterConfig.Hedge).
	HedgeConfig = cluster.HedgeConfig
	// Interconnect models per-hop front-end→node dispatch latency
	// (ClusterConfig.Interconnect). Enabling it delays every offer and
	// completion ack by one hop on the cluster's single simulation
	// environment; the zero value charges zero hops, delivering each
	// at the instant it is sent.
	Interconnect = cluster.Interconnect
	// NodeState is a node's lifecycle state (up, draining, down).
	NodeState = core.NodeState
	// NodeLease is the receipt a node returns when it accepts an offered
	// request: the node now holds the request and will ack its
	// completion, unless a crash voids the lease first.
	NodeLease = core.Lease
	// DrainRecord is one completed drain: the node and how long it took
	// to finish in-flight work after routing stopped.
	DrainRecord = cluster.DrainRecord
	// FleetAutoscaler drives a cluster's routable node count from the
	// fleet's windowed metrics series (ClusterConfig.Autoscaler).
	FleetAutoscaler = cluster.FleetAutoscaler
)

// Fault kinds and node lifecycle states.
const (
	FaultCrash   = sim.FaultCrash
	FaultDrain   = sim.FaultDrain
	FaultRecover = sim.FaultRecover
	FaultSlow    = sim.FaultSlow
	FaultJitter  = sim.FaultJitter
	FaultStall   = sim.FaultStall

	NodeUp       = core.NodeUp
	NodeDraining = core.NodeDraining
	NodeDown     = core.NodeDown
)

// GenerateFaultPlan builds an MTBF-style fault schedule: each node
// alternates exponentially distributed up intervals (mean mtbf) and
// down intervals (mean mttr) until the horizon. Every crash inside the
// horizon gets its matching recover — possibly past the horizon — so a
// generated plan never strands voided work with the fleet down forever.
// The schedule is a pure function of its arguments.
func GenerateFaultPlan(nodes int, mtbf, mttr, horizon time.Duration, seed int64) (*FaultPlan, error) {
	return sim.GenerateFaultPlan(nodes, mtbf, mttr, horizon, seed)
}

// NewRateFleetScaler returns a rate-driven fleet autoscaler targeting
// perNode arrivals per second per node, with scale-down hysteresis.
func NewRateFleetScaler(perNode float64) (FleetAutoscaler, error) {
	return cluster.NewRateFleetScaler(perNode)
}

// CasualAllocation returns the paper's intuitive memory split (§5.2).
func CasualAllocation(dev *Device, perf PerfMatrix, gpuExecutors, cpuExecutors int) Allocation {
	return core.CasualAllocation(dev, perf, gpuExecutors, cpuExecutors)
}

// SambaAllocation returns the Samba-CoE baseline memory layout (§5.1).
func SambaAllocation(dev *Device, perf PerfMatrix) Allocation {
	return core.SambaAllocation(dev, perf)
}

// DefaultAllocation resolves the variant's default memory layout (Samba
// layout for the Samba arrangements, casual split otherwise).
func DefaultAllocation(v Variant, dev *Device, perf PerfMatrix, gpuExecutors, cpuExecutors int) Allocation {
	return core.DefaultAllocation(v, dev, perf, gpuExecutors, cpuExecutors)
}

// AllocationForExperts sizes GPU expert memory to n reference experts
// (the §4.4 search's sweep variable).
func AllocationForExperts(dev *Device, perf PerfMatrix, n, gpuExecutors, cpuExecutors int) Allocation {
	return core.AllocationForExperts(dev, perf, n, gpuExecutors, cpuExecutors)
}

// DefaultExecutors returns the paper's casual executor topology for the
// device.
func DefaultExecutors(dev *Device) (gpus, cpus int) { return core.DefaultExecutors(dev) }

// Workload types: boards generate the CoE model and request
// distribution; tasks are fixed-length closed-loop request streams.
type (
	BoardSpec = workload.BoardSpec
	Board     = workload.Board
	Task      = workload.Task
)

// Stream types: a Source is an arrival process yielding TimedRequests —
// the paper's fixed-period closed loop (Task.Stream), open-loop Poisson,
// bursty on/off traffic, or a multi-tenant Mix.
type (
	Source       = workload.Source
	TimedRequest = workload.TimedRequest
	Poisson      = workload.Poisson
	Bursty       = workload.Bursty
	Mix          = workload.Mix
	Steady       = workload.Steady
)

// Horizon bounds a source at a virtual-time horizon — required before
// serving an infinite steady-state source (Steady).
func Horizon(src Source, d time.Duration) Source { return workload.Horizon(src, d) }

// Trace recording and replay: Record wraps a source so the served
// stream's arrival log (time, class, tenant, routed chain) is captured;
// the resulting ArrivalTrace replays bit-for-bit as a Source and
// persists to a compact binary file via ArrivalTrace.Write /
// ReadArrivalTrace.
type (
	ArrivalTrace    = workload.ArrivalTrace
	RecordingSource = workload.RecordingSource
)

// Record wraps a source, transparently copying every arrival it yields
// into an ArrivalTrace for later replay.
func Record(src Source) *RecordingSource { return workload.Record(src) }

// ReadArrivalTrace reads a trace previously persisted with
// ArrivalTrace.Write.
func ReadArrivalTrace(r io.Reader) (*ArrivalTrace, error) { return workload.ReadTrace(r) }

// IsUnbounded reports whether a source yields an infinite stream and
// therefore needs a Horizon before serving.
func IsUnbounded(src Source) bool { return workload.IsUnbounded(src) }

// MergeBoards fuses several boards into one CoE model for multi-tenant
// serving; it returns the merged board plus per-tenant sampling views.
func MergeBoards(name string, shares []float64, boards ...*Board) (*Board, []*Board, error) {
	return workload.MergeBoards(name, shares, boards...)
}

// NewBoard wraps a custom CoE model and class distribution as a Board
// for custom workloads.
func NewBoard(m *Model, typeProbs []float64) (*Board, error) {
	return workload.NewBoard(m, typeProbs)
}

// BoardA and BoardB are the paper's circuit boards (§5.1).
func BoardA() BoardSpec { return workload.BoardA() }
func BoardB() BoardSpec { return workload.BoardB() }

// TaskA1, TaskA2, TaskB1 and TaskB2 are the paper's evaluation tasks.
func TaskA1(b *Board) Task { return workload.TaskA1(b) }
func TaskA2(b *Board) Task { return workload.TaskA2(b) }
func TaskB1(b *Board) Task { return workload.TaskB1(b) }
func TaskB2(b *Board) Task { return workload.TaskB2(b) }

// Experiment regenerates one of the paper's tables or figures.
type Experiment = experiments.Experiment

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// Experiments lists all reproduction targets in paper order, followed
// by the extension experiments (design-choice ablations, sensitivity
// sweeps).
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one figure/table by ID ("fig13", "tab1", ...)
// and returns its rendered text. The ctx caches shared state across
// calls; pass nil for a fresh one.
func RunExperiment(ctx *ExperimentContext, id string) (string, error) {
	if ctx == nil {
		ctx = experiments.NewContext()
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	tb, err := e.Run(ctx)
	if err != nil {
		return "", err
	}
	return tb.Render(), nil
}

// RunExperiments regenerates several experiments (every registered one
// when ids is nil), fanning independent experiments out across the
// context's worker pool; rendered tables return in ID order regardless
// of execution order, so the output is byte-identical at every worker
// count. Pass nil for a fresh context.
func RunExperiments(ctx *ExperimentContext, ids []string) ([]string, error) {
	if ctx == nil {
		ctx = experiments.NewContext()
	}
	return experiments.RunAll(ctx, ids)
}

// ExperimentContext caches boards, performance matrices, and task runs
// across experiments. It is safe for concurrent use; SetParallel bounds
// the worker pool its sweeps (and RunExperiments) fan out on.
type ExperimentContext = experiments.Context

// NewExperimentContext returns an empty experiment cache running sweeps
// on up to runtime.GOMAXPROCS(0) workers.
func NewExperimentContext() *ExperimentContext { return experiments.NewContext() }
