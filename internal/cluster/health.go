package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// HealthConfig enables per-node health scoring and, optionally, the
// circuit breaker that routes around unhealthy nodes. Health is the
// mitigation side of the gray-failure story: a fail-slow node never
// leaves the Up lifecycle state, so the router only stops feeding it if
// something measures it.
type HealthConfig struct {
	// Window is the scoring interval: once per Window every node's
	// completion latencies (folded through a per-node stats.Sketch) are
	// scored against the fleet median into a health score in [0, 1].
	// Zero disables health entirely — the byte-identical default.
	Window time.Duration
	// Breaker arms the circuit breaker: a node whose score falls below
	// TripBelow is quarantined out of routing, held open for Cooldown
	// windows, then probed half-open (at most Probes outstanding
	// requests) and reinstated once its score recovers past
	// RestoreAbove. Requires Window > 0.
	Breaker bool
	// TripBelow is the quarantine threshold (default 0.5).
	TripBelow float64
	// RestoreAbove is the reinstatement threshold a half-open node must
	// reach (default 0.8).
	RestoreAbove float64
	// Cooldown is how many windows a tripped node stays fully open
	// before half-open probing begins (default 2).
	Cooldown int
	// Probes caps the requests routed to a half-open node per window
	// (default 1).
	Probes int
}

// Enabled reports whether health scoring is on.
func (h HealthConfig) Enabled() bool { return h.Window > 0 }

// withDefaults fills the zero knobs.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.TripBelow == 0 {
		h.TripBelow = 0.5
	}
	if h.RestoreAbove == 0 {
		h.RestoreAbove = 0.8
	}
	if h.Cooldown == 0 {
		h.Cooldown = 2
	}
	if h.Probes == 0 {
		h.Probes = 1
	}
	return h
}

func (h HealthConfig) validate() error {
	if h.Breaker && h.Window <= 0 {
		return fmt.Errorf("cluster: Health.Breaker needs Health.Window > 0 (the scoring interval)")
	}
	if h.Window < 0 {
		return fmt.Errorf("cluster: Health.Window must be >= 0, got %v", h.Window)
	}
	if h.TripBelow < 0 || h.TripBelow > 1 || h.RestoreAbove < 0 || h.RestoreAbove > 1 {
		return fmt.Errorf("cluster: Health thresholds must be in [0, 1]")
	}
	return nil
}

// breakerPhase is one node's circuit-breaker state.
type breakerPhase int

const (
	breakerClosed   breakerPhase = iota // routable
	breakerOpen                         // quarantined, cooling down
	breakerHalfOpen                     // probing: Probes requests per window
)

func (b breakerPhase) String() string {
	switch b {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerPhase(%d)", int(b))
}

// healthState is the per-stream health bookkeeping: windowed per-node
// completion latency (a stats.Sketch each, reset every window), the
// scores derived from it, and the breaker FSM. Nil on streams without
// HealthConfig — those pay nothing.
type healthState struct {
	cfg   HealthConfig
	score []float64
	phase []breakerPhase
	cool  []int // windows left before open → half-open
	// probes counts a half-open node's in-flight probe admissions; it
	// caps routing, decrements on completion, and resets each window.
	probes []int
	// dry counts consecutive windows a node completed nothing while
	// holding work. One silent window is routine — a cold start or a
	// batch spanning the window boundary looks exactly like this — so
	// only a run of them reads as a stall.
	dry   []int
	sk    []*stats.Sketch // this window's completion latencies per node
	means []float64       // scratch for the median reference

	// restricted counts nodes whose phase is not closed; while zero the
	// router fast path stays untouched.
	restricted int

	trips      int   // closed/half-open → open transitions
	reinstates int   // half-open → closed transitions
	probesSent int64 // requests admitted to half-open nodes
	bypasses   int64 // arrivals routed over a fully-quarantined Up set
}

func newHealthState(cfg HealthConfig, nodes int) *healthState {
	h := &healthState{
		cfg:    cfg,
		score:  make([]float64, nodes),
		phase:  make([]breakerPhase, nodes),
		cool:   make([]int, nodes),
		probes: make([]int, nodes),
		dry:    make([]int, nodes),
		sk:     make([]*stats.Sketch, nodes),
		means:  make([]float64, 0, nodes),
	}
	for i := range h.score {
		h.score[i] = 1
		h.sk[i] = stats.NewSketch()
	}
	return h
}

// eligible reports whether routing may send ordinary traffic to node i:
// breaker closed, or half-open with a probe slot free.
func (h *healthState) eligible(i int) bool {
	switch h.phase[i] {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return h.probes[i] < h.cfg.Probes
	}
	return false
}

// onAdmit records a successful admission to node i.
func (h *healthState) onAdmit(i int) {
	if h.phase[i] == breakerHalfOpen {
		h.probes[i]++
		h.probesSent++
	}
}

// onComplete records a lease-resolved completion on node i with the
// given end-to-end latency.
func (h *healthState) onComplete(i int, latSeconds float64) {
	h.sk[i].Add(latSeconds)
	if h.probes[i] > 0 {
		h.probes[i]--
	}
}

// resetNode wipes node i's health bookkeeping — a crash already resets
// the node itself, so the restarted instance is presumed healthy until
// measured again.
func (h *healthState) resetNode(i int) {
	if h.phase[i] != breakerClosed {
		h.restricted--
	}
	h.phase[i] = breakerClosed
	h.score[i] = 1
	h.cool[i] = 0
	h.probes[i] = 0
	h.dry[i] = 0
	h.sk[i].Reset()
}

// startHealth arms the scoring loop: once per Window it recomputes
// every node's score and advances the breaker FSM. Like the fleet
// autoscaler, it is a self-rescheduling callback armed from a start
// event at the current instant, and it stops after the stream has fully
// closed.
func (c *Cluster) startHealth() {
	window := c.health.cfg.Window
	var tick func()
	tick = func() {
		if c.closedAll {
			return
		}
		c.healthTick()
		c.env.After(window, tick)
	}
	c.env.After(0, func() { c.env.After(window, tick) })
}

// healthTick folds one window: per-node scores from this window's
// completion latencies and admissions, then the breaker transitions.
func (c *Cluster) healthTick() {
	h := c.health
	// Reference latency: the median of the per-node mean completion
	// latencies this window, over Up nodes that completed anything. A
	// healthy homogeneous fleet scores ~1 everywhere; one straggler sits
	// far above the median and scores ~median/self.
	h.means = h.means[:0]
	for i, n := range c.nodes {
		if n.sys.State() != core.NodeUp || h.sk[i].Count() == 0 {
			continue
		}
		h.means = append(h.means, h.sk[i].Sum()/float64(h.sk[i].Count()))
	}
	ref := 0.0
	if len(h.means) > 0 {
		sort.Float64s(h.means)
		ref = h.means[len(h.means)/2]
	}
	for i, n := range c.nodes {
		if n.sys.State() != core.NodeUp {
			// Down/Draining nodes are the lifecycle layer's problem; their
			// health resets so they come back presumed healthy.
			continue
		}
		cnt := h.sk[i].Count()
		switch {
		case cnt == 0 && n.sys.Outstanding() > 0:
			// Completed nothing while holding work. One window of silence
			// is no verdict — the held batch may simply span the boundary —
			// so the score is left where it was until the silence repeats;
			// from the second consecutive dry window on, the node reads as
			// stalled.
			h.dry[i]++
			if h.dry[i] >= 2 {
				h.score[i] = 0
			}
		case cnt == 0:
			// Idle: nothing to hold against it.
			h.dry[i] = 0
			h.score[i] = 1
		default:
			h.dry[i] = 0
			// Relative latency only. A raw completions/admissions ratio
			// would also read queue growth — which any node shows under a
			// Poisson burst — as sickness and trip healthy nodes; queueing
			// surfaces in the sojourn latencies soon enough, and the
			// cnt == 0 case above catches the true zero-throughput stall.
			h.score[i] = 1
			if mean := h.sk[i].Sum() / float64(cnt); ref > 0 && mean > ref {
				h.score[i] = ref / mean
			}
		}
	}
	if h.cfg.Breaker {
		c.breakerTick()
	}
	for i := range h.sk {
		h.sk[i].Reset()
		h.probes[i] = 0
	}
}

// breakerTick advances every Up node's breaker FSM on the scores the
// window just produced. Two liveness guards bound fresh trips: at most
// half the fleet may be quarantined at once (relative scoring always
// ranks somebody last, and a breaker with no cap will happily eat a
// healthy fleet one "worst" node at a time), and a trip never
// quarantines the last routable node — better a measured straggler
// than a blackholed fleet. A node already open or half-open may re-trip
// freely; it holds its quarantine slot until reinstated.
func (c *Cluster) breakerTick() {
	h := c.health
	maxOpen := len(c.nodes) / 2
	if maxOpen < 1 {
		maxOpen = 1
	}
	for i, n := range c.nodes {
		if n.sys.State() != core.NodeUp {
			continue
		}
		switch h.phase[i] {
		case breakerClosed:
			if h.score[i] < h.cfg.TripBelow && h.restricted < maxOpen && c.routableHealthy() > 1 {
				h.phase[i] = breakerOpen
				h.cool[i] = h.cfg.Cooldown
				h.restricted++
				h.trips++
			}
		case breakerOpen:
			h.cool[i]--
			if h.cool[i] <= 0 {
				h.phase[i] = breakerHalfOpen
			}
		case breakerHalfOpen:
			// Judge only on windows with a full quorum of completions; an
			// unprobed window (probe still queued behind the straggler's
			// backlog) keeps the node half-open, and a single lucky
			// completion from a jittering node is not evidence of health —
			// one fast batch must not reinstate a sick node.
			if h.sk[i].Count() < int64(h.cfg.Probes) {
				break
			}
			if h.score[i] >= h.cfg.RestoreAbove {
				h.phase[i] = breakerClosed
				h.restricted--
				h.reinstates++
			} else if h.score[i] < h.cfg.TripBelow {
				h.phase[i] = breakerOpen
				h.cool[i] = h.cfg.Cooldown
				h.trips++
			}
		}
	}
}

// routableHealthy counts Up nodes whose breaker is closed.
func (c *Cluster) routableHealthy() int {
	n := 0
	for i, node := range c.nodes {
		if node.sys.State() == core.NodeUp && c.health.phase[i] == breakerClosed {
			n++
		}
	}
	return n
}
