// Package core assembles CoServe and its baselines: the inference
// controller, executor creation, expert initialization (§4.1), and the
// system variants evaluated in §5 — Samba-CoE, Samba-CoE FIFO, Samba-CoE
// Parallel, and the CoServe ablations (None / EM / EM+RA / full).
package core

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultControlWindow is the control-plane interval used when an
// Autoscaler is configured without an explicit Window: the width of the
// windowed metrics series and the autoscaler's decision cadence.
const DefaultControlWindow = 250 * time.Millisecond

// Variant selects a serving system design.
type Variant int

const (
	// Samba is the Samba-CoE baseline: one GPU executor, FCFS request
	// handling, LRU expert replacement, tiered CPU cache on NUMA (§5.1).
	Samba Variant = iota
	// SambaFIFO is Samba with FIFO expert replacement.
	SambaFIFO
	// SambaParallel is Samba with CoServe's executor count and
	// round-robin request distribution.
	SambaParallel
	// CoServeNone is CoServe with all optimizations off: FIFO eviction,
	// FIFO arrival-order queues, round-robin distribution (§5.3).
	CoServeNone
	// CoServeEM adds dependency-aware expert management.
	CoServeEM
	// CoServeEMRA adds request arranging on top of CoServeEM.
	CoServeEMRA
	// CoServe is the full system: expert management, request arranging,
	// and dependency-aware request assigning.
	CoServe
)

var variantNames = map[Variant]string{
	Samba:         "samba-coe",
	SambaFIFO:     "samba-coe-fifo",
	SambaParallel: "samba-coe-parallel",
	CoServeNone:   "coserve-none",
	CoServeEM:     "coserve-em",
	CoServeEMRA:   "coserve-em-ra",
	CoServe:       "coserve",
}

func (v Variant) String() string {
	if s, ok := variantNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all variants in evaluation order.
func Variants() []Variant {
	return []Variant{Samba, SambaFIFO, SambaParallel, CoServeNone, CoServeEM, CoServeEMRA, CoServe}
}

// policy returns the variant's eviction policy.
func (v Variant) policy() pool.Policy {
	switch v {
	case Samba, SambaParallel:
		return pool.LRU{}
	case SambaFIFO, CoServeNone:
		return pool.FIFO{}
	default:
		return pool.DepAware{}
	}
}

// queueMode returns the variant's request-arranging mode.
func (v Variant) queueMode() sched.Mode {
	switch v {
	case CoServeEMRA, CoServe:
		return sched.ModeGrouped
	default:
		return sched.ModeFIFO
	}
}

// assigner returns a fresh assigner for the variant.
func (v Variant) assigner() sched.Assigner {
	switch v {
	case Samba, SambaFIFO:
		return sched.Single{}
	case CoServe:
		return sched.MinMax{}
	default:
		// Samba-CoE Parallel and the ablation baselines distribute
		// requests evenly across executors in arrival order (§5.1,
		// §5.3).
		return &sched.RoundRobin{}
	}
}

// singleExecutor reports whether the variant pins the topology to one
// GPU executor (the Samba-CoE serving arrangement).
func (v Variant) singleExecutor() bool { return v == Samba || v == SambaFIFO }

// sharedPools reports whether executors of the same processor share one
// model pool. Samba-CoE Parallel adds executors to Samba's design, whose
// expert store is a single HBM pool; CoServe gives every executor its
// own pool (Figure 7).
func (v Variant) sharedPools() bool { return v == SambaParallel }

// coldStart reports whether the system starts with empty pools. The
// Samba-CoE baselines manage experts by historical statistics only —
// they have no pre-assessed usage probabilities to preload by (§2.2,
// §3.2) — so their tiers warm organically under LRU/FIFO. CoServe's
// expert initializer (§4.1) is one of its contributions and applies to
// all CoServe variants, including the ablations.
func (v Variant) coldStart() bool {
	return v == Samba || v == SambaFIFO || v == SambaParallel
}

// Allocation divides device memory between expert storage, the host
// cache, and batch intermediate results (§3.3, §4.4). All byte counts
// are totals: per-pool capacities are derived by dividing across
// executors.
type Allocation struct {
	// GPUExpertBytes is the expert-storage budget across all GPU pools.
	GPUExpertBytes int64
	// CPUExpertBytes is the expert-storage budget across all CPU pools.
	CPUExpertBytes int64
	// HostCacheBytes is the NUMA host cache for GPU-evicted experts.
	HostCacheBytes int64
	// GPUActBytes and CPUActBytes budget batch intermediate results.
	GPUActBytes int64
	CPUActBytes int64
}

// Config describes one serving system instance.
type Config struct {
	Device  *hw.Device
	Variant Variant
	// ID, when non-empty, namespaces the system's executor, queue, and
	// pool names ("node0/gpu1") — set by the cluster layer so per-node
	// report rows stay distinguishable. Empty for single systems: names
	// stay exactly "gpu0", "cpu0", ….
	ID string
	// Preload, when non-nil, replaces the §4.1 descending-usage preload
	// order with an explicit expert list — the cluster placement hook.
	// Experts are preloaded round-robin across the system's pools in
	// list order until the pools fill; an empty non-nil slice preloads
	// nothing. Ignored by the cold-start (Samba) variants, which never
	// preload.
	Preload []coe.ExpertID
	// GPUExecutors and CPUExecutors set the topology. Samba and
	// SambaFIFO override to 1 GPU / 0 CPU.
	GPUExecutors int
	CPUExecutors int
	Alloc        Allocation
	// Perf is the offline profiler's performance matrix.
	Perf model.PerfMatrix
	// SLO is the per-request end-to-end latency objective reports score
	// attainment against. Zero disables SLO accounting (attainment
	// reports as 1).
	SLO time.Duration
	// PreschedPicks, when non-nil, replays a recorded assignment
	// sequence instead of scheduling online (Figure 19's pre-scheduled
	// control).
	PreschedPicks []int
	// Trace, when non-nil, records assignment, switch, batch, and
	// completion events of the run.
	Trace *trace.Log
	// EvictPolicy, when non-nil, overrides the variant's eviction policy
	// (for design-choice ablations such as prob-only vs two-stage).
	EvictPolicy pool.Policy
	// Admission, when non-nil, is the control plane's admission policy:
	// it is consulted once per arriving request and may reject it before
	// it touches a queue. Nil (and control.AcceptAll) admit everything —
	// both are byte-identical to the pre-control-plane behavior.
	Admission control.AdmissionPolicy
	// Autoscaler, when non-nil, resizes the active executor set once per
	// Window based on measured utilization. Deactivated executors keep
	// their pools warm (scaling back up reuses loaded experts); the
	// active counts persist across consecutive streams, so between-stream
	// scaling falls out of the same loop. Incompatible with
	// PreschedPicks, whose recorded indices assume a fixed queue set.
	Autoscaler control.Autoscaler
	// Window is the width of the recorder's windowed
	// throughput/latency/rejection series and the autoscaler's control
	// interval. Zero disables windowed metrics, unless an Autoscaler is
	// set, in which case it defaults to DefaultControlWindow.
	Window time.Duration
	// Percentiles selects how latency percentiles are computed. The
	// zero value (PercentilesExact) stores every sample and reports
	// exact percentiles — the mode golden experiments run in, byte-
	// identical to the pre-sketch behavior. PercentilesSketch streams
	// samples into a fixed-size mergeable quantile sketch instead, so
	// recorder memory is O(1) in completions; percentiles then carry
	// the sketch's documented relative-accuracy bound (1%).
	Percentiles PercentileMode
	// DisablePicks stops the per-dispatch assignment recording that
	// feeds Report.Picks and PreschedPicks replay. The picks slice
	// grows with the total stage count of the stream — fine for the
	// paper's bounded tasks, unwanted for fleet-scale streams of
	// millions of requests. Off by default.
	DisablePicks bool
}

// PercentileMode selects exact (store-every-sample) or sketch
// (fixed-size streaming) latency percentile accounting.
type PercentileMode int

const (
	// PercentilesExact stores every latency sample; percentiles are
	// exact. The default.
	PercentilesExact PercentileMode = iota
	// PercentilesSketch streams samples into a mergeable quantile
	// sketch (stats.Sketch); memory is O(1) in completions and
	// percentiles are accurate to the sketch's documented bound.
	PercentilesSketch
)

func (m PercentileMode) String() string {
	switch m {
	case PercentilesExact:
		return "exact"
	case PercentilesSketch:
		return "sketch"
	}
	return fmt.Sprintf("PercentileMode(%d)", int(m))
}

// evictPolicy resolves the effective eviction policy.
func (c Config) evictPolicy() pool.Policy {
	if c.EvictPolicy != nil {
		return c.EvictPolicy
	}
	return c.Variant.policy()
}

// normalized returns the config with variant-dependent topology and
// control-plane defaults applied.
func (c Config) normalized() Config {
	if c.Variant.singleExecutor() {
		c.GPUExecutors, c.CPUExecutors = 1, 0
	}
	if c.Autoscaler != nil && c.Window <= 0 {
		c.Window = DefaultControlWindow
	}
	return c
}

// validate checks the configuration against the device profile and the
// deadlock-freedom requirements of the executors.
func (c Config) validate(largestWeight, largestGPUAct, largestCPUAct int64) error {
	if c.Device == nil {
		return fmt.Errorf("core: config needs a device")
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if c.GPUExecutors < 1 {
		return fmt.Errorf("core: at least one GPU executor required")
	}
	if c.CPUExecutors < 0 {
		return fmt.Errorf("core: negative CPU executor count")
	}
	if c.Perf == nil {
		return fmt.Errorf("core: config needs a performance matrix")
	}
	if c.Autoscaler != nil && c.PreschedPicks != nil {
		// Replayed picks index a fixed queue set; scaling the active set
		// mid-replay would re-route the recorded assignments.
		return fmt.Errorf("core: autoscaling cannot be combined with pre-scheduled picks")
	}
	a := c.Alloc
	if a.GPUExpertBytes <= 0 {
		return fmt.Errorf("core: GPU expert budget must be positive")
	}
	// Every pool must hold one pinned expert per sharing executor plus
	// the incoming expert, or Acquire could be unable to evict.
	perGPUPool, gpuSharers := a.GPUExpertBytes/int64(c.GPUExecutors), 1
	if c.Variant.sharedPools() {
		perGPUPool, gpuSharers = a.GPUExpertBytes, c.GPUExecutors
	}
	if perGPUPool < int64(gpuSharers+1)*largestWeight {
		return fmt.Errorf("core: GPU pool capacity %d cannot hold %d of the largest expert (%d bytes)",
			perGPUPool, gpuSharers+1, largestWeight)
	}
	if c.CPUExecutors > 0 {
		perCPUPool, cpuSharers := a.CPUExpertBytes/int64(c.CPUExecutors), 1
		if c.Variant.sharedPools() {
			perCPUPool, cpuSharers = a.CPUExpertBytes, c.CPUExecutors
		}
		if perCPUPool < int64(cpuSharers+1)*largestWeight {
			return fmt.Errorf("core: CPU pool capacity %d cannot hold %d of the largest expert (%d bytes)",
				perCPUPool, cpuSharers+1, largestWeight)
		}
		if a.CPUActBytes < largestCPUAct {
			return fmt.Errorf("core: CPU activation budget %d below one image (%d bytes)",
				a.CPUActBytes, largestCPUAct)
		}
	}
	// The activation arena must fit at least one image or executors
	// deadlock waiting for memory.
	if a.GPUActBytes < largestGPUAct {
		return fmt.Errorf("core: GPU activation budget %d below one image (%d bytes)",
			a.GPUActBytes, largestGPUAct)
	}
	// Totals must fit the physical memories (workspaces are per
	// executor; the OS reserve never becomes available).
	gpuWS := int64(c.GPUExecutors) * c.Device.GPU.WorkspaceBytes
	cpuWS := int64(c.CPUExecutors) * c.Device.CPU.WorkspaceBytes
	switch c.Device.Mem {
	case hw.NUMA:
		gpuTotal := gpuWS + a.GPUExpertBytes + a.GPUActBytes
		if gpuTotal > c.Device.GPUMemBytes {
			return fmt.Errorf("core: GPU allocation %d exceeds %d", gpuTotal, c.Device.GPUMemBytes)
		}
		if cpuWS == 0 {
			cpuWS = c.Device.CPU.WorkspaceBytes // host runtime
		}
		cpuTotal := cpuWS + a.CPUExpertBytes + a.CPUActBytes + a.HostCacheBytes
		if cpuTotal > c.Device.CPUMemBytes {
			return fmt.Errorf("core: CPU allocation %d exceeds %d", cpuTotal, c.Device.CPUMemBytes)
		}
	case hw.UMA:
		total := c.Device.OSReserveBytes + gpuWS + cpuWS +
			a.GPUExpertBytes + a.GPUActBytes +
			a.CPUExpertBytes + a.CPUActBytes + a.HostCacheBytes
		if total > c.Device.UnifiedMemBytes {
			return fmt.Errorf("core: unified allocation %d exceeds %d", total, c.Device.UnifiedMemBytes)
		}
	}
	return nil
}
