package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Report aggregates one cluster-served stream: the fleet view plus each
// node's full single-system report.
type Report struct {
	// Stream names the served source; Nodes is the fleet size.
	Stream string
	Nodes  int
	// Router and Placement name the policies the stream ran under.
	Router    string
	Placement string

	// N counts admitted requests fleet-wide; Offered additionally
	// counts requests rejected by the nodes' admission policies.
	N             int64
	Offered       int64
	Rejected      int64
	RejectionRate float64
	Completions   int64
	// Makespan spans first fleet arrival to last fleet completion;
	// Throughput is fleet completions per second of it.
	Makespan   time.Duration
	Throughput float64

	// Latency summarizes the fleet-wide per-request latency population
	// (seconds) — not an approximation over node summaries. In exact
	// mode it is computed from the fleet recorder's full sample set; in
	// sketch mode from the lossless merge of the per-node sketches,
	// which is bucket-for-bucket identical to a single fleet sketch.
	Latency stats.Summary
	// LatencySketch is the merged fleet latency sketch (per-node
	// sketches folded together). Nil in exact mode.
	LatencySketch *stats.Sketch
	// SLO echoes the fleet objective; SLOAttainment is the fraction of
	// fleet completions meeting it (1 when no SLO is configured).
	SLO           time.Duration
	SLOAttainment float64

	// Switches, SSDLoads, HostHits, and Evictions sum the nodes' expert
	// movement — the fleet's total switching bill.
	Switches  int64
	SSDLoads  int64
	HostHits  int64
	Evictions int64

	// Imbalance is the max-over-mean ratio of per-node routed arrivals:
	// 1.0 is a perfectly balanced fleet, N is everything on one node of
	// N. Routed counts include rejected requests — it measures the
	// router, not the admission policies.
	Imbalance float64
	// Routed counts arrivals handed to each node, in node order.
	Routed []int64

	// Windows is the fleet-level sliding-interval series (nil unless
	// Config.Window enabled it).
	Windows []metrics.Window

	// PerNode holds each node's full report, in node order. Node-local
	// slices (per-tenant stats, per-executor rows, windows) live here.
	PerNode []*core.Report

	// Chaos and lifecycle accounting — all zero on fault-free,
	// scaler-free streams, and FinalStates nil unless faults, hedging,
	// an interconnect, or a fleet autoscaler is configured.

	// Faults counts fault-plan events applied; Crashes, Drains,
	// Recoveries, and the gray kinds (Slows, Jitters, Stalls) break
	// them down. A gray recover counts under Recoveries.
	Faults     int
	Crashes    int
	Drains     int
	Recoveries int
	Slows      int
	Jitters    int
	Stalls     int
	// LostLeases counts leases voided by crashes; Redelivered counts
	// their successful re-admissions (≤ LostLeases: a lease can be
	// voided and redelivered more than once, or terminally rejected).
	// RedeliveredRejected counts voided leases a node's admission
	// refused — terminal losses the recorder's arrival count already
	// includes, so on streams with them N = Completions +
	// RedeliveredRejected. Dropped sums the nodes' crash-voided request
	// counts (queued work purged plus in-flight batches discarded).
	LostLeases          int64
	Redelivered         int64
	RedeliveredRejected int64
	Dropped             int64
	// PendingPeak is the largest redelivery backlog observed while no
	// node was routable.
	PendingPeak int
	// Bounced counts offers that crossed the interconnect only to find
	// their node no longer Up, and were re-routed by the front end.
	// Always zero without Config.Interconnect: over a zero hop an offer
	// lands at the instant it is routed.
	Bounced int64
	// DupAcks counts completion acknowledgments that arrived after
	// their lease had been voided and redelivered — work finished on a
	// node the ledger no longer tracked. Only the interconnect can
	// produce them (an ack and a crash can cross on the wire); they
	// never count as completions.
	DupAcks int64
	// FailoverMean and FailoverMax summarize the time from a lease's
	// void (the crash) to its redelivered completion.
	FailoverMean time.Duration
	FailoverMax  time.Duration
	// TimeToDrain records every completed drain: the time from the
	// drain order until the node had nothing outstanding.
	TimeToDrain []DrainRecord
	// ScaleUps and ScaleDowns count the fleet autoscaler's actions;
	// FinalStates is each node's lifecycle state at stream end.
	ScaleUps    int
	ScaleDowns  int
	FinalStates []core.NodeState

	// Health and breaker accounting — all zero unless Config.Health is
	// enabled. HealthScores is each node's last computed score.
	BreakerTrips      int
	BreakerReinstates int
	ProbesSent        int64
	BreakerBypasses   int64
	HealthScores      []float64

	// Hedge accounting — all zero unless Config.Hedge is enabled.
	// HedgesFired counts speculative copies admitted; HedgeWins the
	// leases the copy resolved first; HedgeWasted the loser copies that
	// completed anyway (the wasted-work bill); HedgeRejected copies
	// node admission refused; HedgeRetries deadline re-arms after a
	// failed attempt; HedgePromoted primaries lost to a crash whose
	// hedge copy took over the lease; HedgesVoided races whose losing
	// copy a crash destroyed (the hedge copy, or the primary of a
	// promotion). Every fired hedge ends exactly once as wasted or
	// voided: HedgesFired == HedgeWasted + HedgesVoided.
	HedgesFired   int64
	HedgeWins     int64
	HedgeWasted   int64
	HedgeRejected int64
	HedgeRetries  int64
	HedgePromoted int64
	HedgesVoided  int64
}

// DrainRecord is one completed drain: the node and how long it took to
// finish its in-flight work after routing stopped.
type DrainRecord struct {
	Node string
	Took time.Duration
}

// report assembles the fleet aggregate after a completed stream.
func (c *Cluster) report(stream string, perNode []*core.Report) *Report {
	r := &Report{
		Stream:        stream,
		Nodes:         len(c.nodes),
		Router:        c.router.Name(),
		Placement:     c.placement.Name(),
		N:             c.recorder.Arrivals(),
		Offered:       c.recorder.Arrivals() + c.recorder.Rejections(),
		Rejected:      c.recorder.Rejections(),
		Completions:   c.recorder.Completions(),
		Makespan:      c.recorder.Makespan(),
		Throughput:    c.recorder.Throughput(),
		Latency:       c.recorder.LatencySummary(),
		SLO:           c.cfg.SLO,
		SLOAttainment: c.recorder.SLOAttainment(c.cfg.SLO),
		Routed:        append([]int64(nil), c.routed...),
		PerNode:       perNode,
	}
	if r.Offered > 0 {
		r.RejectionRate = float64(r.Rejected) / float64(r.Offered)
	}
	if c.cfg.Percentiles == core.PercentilesSketch {
		// Demonstrate the sketch's merge property where it matters: the
		// fleet percentiles come from folding the per-node sketches
		// together — no per-node sample slices exist, nothing re-sorts —
		// and the merge is lossless, so this equals the fleet recorder's
		// own sketch bucket for bucket.
		merged := stats.NewSketch()
		for _, rep := range perNode {
			merged.Merge(rep.LatencySketch)
		}
		r.Latency = merged.Summary()
		r.SLOAttainment = merged.Attainment(c.cfg.SLO.Seconds())
		r.LatencySketch = merged
	}
	if ws := c.recorder.Windows(); len(ws) > 0 {
		r.Windows = append([]metrics.Window(nil), ws...)
	}
	for _, rep := range perNode {
		r.Switches += rep.Switches
		r.SSDLoads += rep.SSDLoads
		r.HostHits += rep.HostHits
		r.Evictions += rep.Evictions
		r.Dropped += rep.Dropped
	}
	r.ScaleUps, r.ScaleDowns = c.scaleUps, c.scaleDowns
	if len(c.drainRecords) > 0 {
		r.TimeToDrain = append([]DrainRecord(nil), c.drainRecords...)
	}
	cs := c.chaos
	r.Faults = cs.crashes + cs.drains + cs.recoveries + cs.slows + cs.jitters + cs.stalls
	r.Crashes, r.Drains, r.Recoveries = cs.crashes, cs.drains, cs.recoveries
	r.Slows, r.Jitters, r.Stalls = cs.slows, cs.jitters, cs.stalls
	r.LostLeases = cs.lostLeases
	r.Redelivered = cs.redelivered
	r.RedeliveredRejected = cs.redeliveredRejected
	r.PendingPeak = cs.pendingPeak
	r.Bounced = cs.bounced
	r.DupAcks = cs.dupAcks
	if cs.failoverN > 0 {
		r.FailoverMean = cs.failoverSum / time.Duration(cs.failoverN)
		r.FailoverMax = cs.failoverMax
	}
	r.HedgesFired = cs.hedgesFired
	r.HedgeWins = cs.hedgeWins
	r.HedgeWasted = cs.hedgeWasted
	r.HedgeRejected = cs.hedgeRejected
	r.HedgeRetries = cs.hedgeRetries
	r.HedgePromoted = cs.hedgePromoted
	r.HedgesVoided = cs.hedgesVoided
	if h := c.health; h != nil {
		r.BreakerTrips = h.trips
		r.BreakerReinstates = h.reinstates
		r.ProbesSent = h.probesSent
		r.BreakerBypasses = h.bypasses
		r.HealthScores = append([]float64(nil), h.score...)
	}
	if !c.cfg.Faults.Empty() || c.hedge.Enabled() || c.cfg.Interconnect.Enabled() || c.cfg.Autoscaler != nil {
		r.FinalStates = make([]core.NodeState, len(c.nodes))
		for i, n := range c.nodes {
			r.FinalStates[i] = n.sys.State()
		}
	}
	var total, max int64
	for _, n := range r.Routed {
		total += n
		if n > max {
			max = n
		}
	}
	if total > 0 {
		r.Imbalance = float64(max) * float64(len(c.nodes)) / float64(total)
	}
	return r
}
