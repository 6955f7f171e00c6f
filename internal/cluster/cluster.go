// Package cluster is the multi-node serving layer: one front end
// serving a single request stream across N nodes, where each node is a
// full single-device data plane (core.System — executors, pools,
// queues, admission, autoscaling) and all nodes share one simulation
// environment so the whole fleet stays deterministic.
//
// The front end owns three decisions the single-node system never had
// to make: where each expert's instances live (Placement — a
// generalization of the paper's §4.4 capacity planning across
// heterogeneous devices), which node an arriving request runs on
// (Router — least-loaded, expert-affinity over pool residency, or
// predicted-latency via the §4.2 cost model), and how the per-node
// reports aggregate into a fleet view (Report — fleet percentiles,
// attainment, and cross-node imbalance).
//
// A request is routed once, at admission: its whole expert chain runs
// on the chosen node, exactly as it would on a single-node system, so a
// node's slice of a cluster run is the same data plane the paper
// evaluates. Routing per stage (migrating a request between nodes
// mid-chain) would ship activations across nodes; with the paper's
// short chains the residency-aware first-stage decision captures
// nearly all of the benefit. The front end reaches its nodes over one
// offer/fold protocol on a lease ledger (interconnect.go); the
// Interconnect only sets how long each hop takes, zero by default.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes a cluster: one core.Config per node (heterogeneous
// fleets — different devices, topologies, admission policies per node —
// are explicitly supported), the routing and placement policies, and
// the fleet-level reporting knobs.
type Config struct {
	// Nodes holds one data-plane configuration per node. Node IDs
	// default to "node0", "node1", … when empty. Per-node stateful
	// control-plane components (Admission, Autoscaler) must not be
	// shared between node configs.
	Nodes []core.Config
	// Router picks the node an admitted request runs on; nil defaults
	// to LeastLoaded.
	Router Router
	// Placement plans expert preloading across the fleet; nil defaults
	// to Mirror (every node preloads its own §4.1 usage order).
	Placement Placement
	// SLO is the fleet-level latency objective the cluster report
	// scores attainment against (0 disables, like core.Config.SLO).
	SLO time.Duration
	// Window enables the fleet-level windowed series with the given
	// interval (0 disables).
	Window time.Duration
	// Percentiles selects exact or sketch latency accounting for the
	// whole fleet. It is a cluster-level knob: New propagates it into
	// every node config (overriding whatever the node configs carry) so
	// per-node sketches exist exactly when the fleet sketch does and
	// merge losslessly into the cluster report. The zero value is
	// exact — byte-identical to the pre-sketch reports.
	Percentiles core.PercentileMode

	// Admission, when set, is the cluster-level admission policy checked
	// in front of the router: a request it rejects never reaches a node.
	// The policy sees the Cluster as its control.View (fleet backlog,
	// best-node latency prediction). Nil — the default — admits
	// everything, byte-identical to the pre-admission cluster.
	Admission control.AdmissionPolicy
	// Faults is the stream's fault schedule: scripted crash/drain/
	// recover events the cluster fires deterministically, with lease-
	// tracked at-least-once redelivery of a crashed node's in-flight
	// requests and exactly-once completion accounting. Nil or empty — the
	// default — injects nothing and leaves every serve path byte-
	// identical to the fault-free cluster.
	Faults *sim.FaultPlan
	// Arena, when set, leases redelivered requests and hedge copies
	// from this arena (normally the same one the workload source draws
	// from) instead of allocating them. Optional; redelivery is correct
	// either way.
	Arena *coe.Arena
	// Autoscaler, when set, drives the routable node count from the
	// fleet's windowed metrics series: once per Window it is asked for a
	// desired Up count, and the cluster drains (highest-index first) or
	// resumes nodes to match. Requires Window > 0. Nil disables fleet
	// scaling.
	Autoscaler FleetAutoscaler

	// Health enables per-node health scoring and the circuit breaker —
	// the gray-failure detector. The zero value disables it and leaves
	// every serve path byte-identical to the health-free cluster.
	Health HealthConfig
	// Hedge enables per-request deadline timeouts with hedged
	// redelivery over the chaos layer's lease ledger. The zero value
	// disables it.
	Hedge HedgeConfig

	// Interconnect models the dispatch latency between the front end
	// and its nodes: every offer and completion ack lands one hop after
	// it is sent. The zero value charges zero hops, so every message of
	// the protocol lands at the instant it is sent.
	Interconnect Interconnect
}

// Uniform returns n copies of the node configuration — the homogeneous
// fleet constructor. IDs are left empty for New to assign.
func Uniform(n int, node core.Config) []core.Config {
	nodes := make([]core.Config, n)
	for i := range nodes {
		nodes[i] = node
	}
	return nodes
}

// Node is one member of the cluster: a single-device data plane plus
// the read-only view routers consult.
type Node struct {
	id  string
	sys *core.System
}

// ID reports the node's identifier.
func (n *Node) ID() string { return n.id }

// System exposes the node's data plane (read-only use).
func (n *Node) System() *core.System { return n.sys }

// Queued reports the node's backlog across active queues.
func (n *Node) Queued() int { return n.sys.Queued() }

// Resident reports whether the expert is Loaded or Loading in any of
// the node's pools — the router's affinity signal.
func (n *Node) Resident(id coe.ExpertID) bool { return n.sys.ExpertResident(id) }

// PredictLatency predicts the end-to-end latency the request would
// observe if admitted to this node now (sched.Queue.Predict under the
// node's §4.2 cost model).
func (n *Node) PredictLatency(r *coe.Request) time.Duration { return n.sys.PredictLatency(r) }

// Cluster is a multi-node serving system. Like core.System it is
// long-lived: Serve runs one stream across the fleet, and consecutive
// calls warm-restart every node on its already-loaded pools.
type Cluster struct {
	cfg       Config
	m         *coe.Model
	env       *sim.Env
	router    Router
	placement Placement
	nodes     []*Node
	recorder  *metrics.Recorder

	// latency caches each node's one-way hop cost (all zero without
	// an Interconnect). msgFree heads the free list of pooled protocol
	// messages.
	latency []time.Duration
	msgFree *message

	runs    int
	serving bool
	broken  error

	// routed counts arrivals handed to each node (admitted or not) this
	// stream — the imbalance numerator.
	routed []int64

	// The arrival loop's state: the stream's source and start instant,
	// the loop's callback (bound once, so re-arming it allocates
	// nothing), and the request it is waiting to deliver, valid while
	// waiting is set.
	src      workload.Source
	srcStart sim.Time
	arrive   func()
	due      workload.TimedRequest
	waiting  bool

	// chaos is the durable-delivery state (lease ledger, redelivery
	// queue, exactly-once counters), reset for every stream.
	chaos *chaosState
	// closedAll records that every node's stream has been closed. The
	// close waits until the ledger and redelivery queue drain, so a
	// recovered node can still receive redeliveries.
	closedAll bool

	// unroutable counts nodes currently not Up. While it is zero (and
	// no breaker restricts a node) the router sees c.nodes directly —
	// the fault-free fast path; otherwise pickNode routes over the
	// eligible subset in scratch/scratchIdx.
	unroutable int
	scratch    []*Node
	scratchIdx []int

	// health is the per-stream scoring and breaker state; nil unless
	// Config.Health is enabled. hedge is Config.Hedge with defaults
	// resolved. delegates gives each node an identity-carrying
	// StreamDelegate so completions attribute to the reporting node.
	health    *healthState
	hedge     HedgeConfig
	delegates []nodeDelegate
	probe     coe.Request

	// draining counts nodes currently Draining.
	draining      int
	drainOn       []bool     // drain in progress, completion not yet recorded
	drainStart    []sim.Time // when the drain began
	scalerDrained []bool     // drain owned by the fleet autoscaler
	drainRecords  []DrainRecord
	scaleUps      int
	scaleDowns    int
}

// New builds a cluster for the CoE model: the placement plan is
// computed first, then each node's data plane is constructed in the
// shared environment with its slice of the plan preloaded.
func New(cfg Config, m *coe.Model) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: config needs at least one node")
	}
	c := &Cluster{
		cfg:       cfg,
		m:         m,
		router:    cfg.Router,
		placement: cfg.Placement,
		recorder:  metrics.NewRecorder(),
		routed:    make([]int64, len(cfg.Nodes)),
	}
	if err := cfg.Interconnect.validate(len(cfg.Nodes)); err != nil {
		return nil, err
	}
	c.env = sim.NewEnv()
	c.latency = make([]time.Duration, len(cfg.Nodes))
	for i := range c.latency {
		c.latency[i] = cfg.Interconnect.NodeLatency(i)
	}
	c.chaos = newChaosState(len(cfg.Nodes), cfg.Arena)
	c.drainOn = make([]bool, len(cfg.Nodes))
	c.drainStart = make([]sim.Time, len(cfg.Nodes))
	c.scalerDrained = make([]bool, len(cfg.Nodes))
	if c.router == nil {
		c.router = LeastLoaded{}
	}
	if c.placement == nil {
		c.placement = Mirror{}
	}
	if err := cfg.Faults.Validate(len(cfg.Nodes)); err != nil {
		return nil, err
	}
	if cfg.Autoscaler != nil && cfg.Window <= 0 {
		return nil, fmt.Errorf("cluster: a fleet autoscaler needs Window > 0 (the scaling interval)")
	}
	if err := cfg.Health.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Hedge.validate(); err != nil {
		return nil, err
	}
	c.hedge = cfg.Hedge.withDefaults()
	c.recorder.SetWindow(cfg.Window)
	if cfg.Percentiles == core.PercentilesSketch {
		c.recorder.UseSketch()
	}

	caps := make([]NodeCapacity, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		id := nc.ID
		if id == "" {
			id = fmt.Sprintf("node%d", i)
		}
		caps[i] = NodeCapacity{ID: id, ExpertBytes: nc.Alloc.GPUExpertBytes + nc.Alloc.CPUExpertBytes}
	}
	plan, err := c.placement.Plan(m, caps)
	if err != nil {
		return nil, err
	}
	if plan != nil && len(plan) != len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: placement %q planned %d nodes for a %d-node fleet",
			c.placement.Name(), len(plan), len(cfg.Nodes))
	}

	for i, nc := range cfg.Nodes {
		nc.ID = caps[i].ID
		if plan != nil {
			nc.Preload = plan[i]
		}
		nc.Percentiles = cfg.Percentiles
		sys, err := core.NewSystemInEnv(nc, m, c.env)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", nc.ID, err)
		}
		c.nodes = append(c.nodes, &Node{id: nc.ID, sys: sys})
	}
	c.delegates = make([]nodeDelegate, len(c.nodes))
	for i := range c.delegates {
		c.delegates[i] = nodeDelegate{c: c, idx: i}
	}
	return c, nil
}

// nodeDelegate is the StreamDelegate one node reports completions
// through: it carries the node's index so the cluster can attribute the
// completion — health scoring per node, hedge-race resolution by
// whichever copy's node acked first.
type nodeDelegate struct {
	c   *Cluster
	idx int
}

// RequestDone implements core.StreamDelegate: the completion folds
// back to the front end carrying only the request ID, since the node
// recycles the request once this returns.
func (d *nodeDelegate) RequestDone(now sim.Time, r *coe.Request) {
	m := d.c.newMsg(opCompletion, d.idx, false, nil)
	m.id = r.ID
	d.c.send(now, m)
}

// Nodes exposes the fleet (read-only use).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Runs reports how many streams the cluster has served.
func (c *Cluster) Runs() int { return c.runs }

// Serve runs one request stream across the fleet to completion and
// returns the aggregated report. The first Serve runs against the
// placement plan's freshly preloaded pools; consecutive calls
// warm-restart every node — the shared virtual clock continues and each
// node's pools keep whatever the previous stream left resident. A
// stream that ends with requests in flight poisons the cluster.
func (c *Cluster) Serve(src workload.Source) (*Report, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if c.serving {
		return nil, fmt.Errorf("cluster: Serve called re-entrantly")
	}
	if workload.IsUnbounded(src) {
		return nil, fmt.Errorf("cluster: stream %q is unbounded; wrap it in workload.Horizon to give it a terminating horizon",
			src.Name())
	}
	if sm, ok := src.(interface{ Model() *coe.Model }); ok && sm.Model() != nil && sm.Model() != c.m {
		return nil, fmt.Errorf("cluster: stream %q draws from model %q, cluster serves %q",
			src.Name(), sm.Model().Name(), c.m.Name())
	}
	c.serving = true
	defer func() { c.serving = false }()

	if c.runs > 0 {
		c.recorder.Reset()
		clear(c.routed)
	}
	c.runs++
	c.beginLifecycle()
	for i, n := range c.nodes {
		if err := n.sys.JoinStream(src.Name(), &c.delegates[i]); err != nil {
			// Unwind the nodes already joined: close their (empty) streams
			// and collect the reports, so they end this stream cleanly
			// instead of being left serving a stream nobody will ever
			// close. The cluster itself stays poisoned — a partial join is
			// not a servable state — but the nodes are not.
			if i > 0 {
				for _, m := range c.nodes[:i] {
					m.sys.CloseStream()
				}
				c.env.Run()
				for _, m := range c.nodes[:i] {
					m.sys.StreamReport()
				}
			}
			c.broken = fmt.Errorf("cluster: node %s: %w", n.id, err)
			return nil, c.broken
		}
	}
	if c.cfg.Admission != nil {
		c.cfg.Admission.Reset(c.env.Now())
	}
	c.cfg.Faults.Start(c.env, func(ev sim.FaultEvent) { c.applyFault(c.env.Now(), ev) })
	if c.cfg.Autoscaler != nil {
		c.startFleetAutoscale()
	}
	if c.health != nil {
		c.startHealth()
	}
	c.admit(src)
	c.env.Run()

	cs := c.chaos
	cs.verify(c.env.Now(), "stream end")
	if len(cs.violations) > 0 {
		c.broken = fmt.Errorf("cluster: exactly-once accounting violated:\n  %s",
			strings.Join(cs.violations, "\n  "))
		return nil, c.broken
	}
	if !c.closedAll {
		c.broken = fmt.Errorf("cluster: stream %q ended with %d leases outstanding and %d requests undeliverable (no routable node remained to redeliver to)",
			src.Name(), len(cs.ledger), len(cs.pending))
		return nil, c.broken
	}

	reports := make([]*core.Report, len(c.nodes))
	for i, n := range c.nodes {
		rep, err := n.sys.StreamReport()
		if err != nil {
			c.broken = err
			return nil, err
		}
		reports[i] = rep
	}
	return c.report(src.Name(), reports), nil
}

// beginLifecycle arms the per-stream lifecycle state: a reset lease
// ledger, cleared drain timing, and fresh health scoring when
// configured.
func (c *Cluster) beginLifecycle() {
	c.closedAll = false
	c.unroutable, c.draining = 0, 0
	c.scaleUps, c.scaleDowns = 0, 0
	c.drainRecords = nil
	c.chaos.reset()
	c.health = nil
	if c.cfg.Health.Enabled() {
		c.health = newHealthState(c.cfg.Health.withDefaults(), len(c.nodes))
	}
	clear(c.drainOn)
	clear(c.drainStart)
	clear(c.scalerDrained)
}

// admit starts the cluster's arrival loop on src at the current
// instant, behind the events already scheduled for it.
func (c *Cluster) admit(src workload.Source) {
	c.src, c.srcStart, c.waiting = src, c.env.Now(), false
	if c.arrive == nil {
		c.arrive = c.arrivals
	}
	c.env.After(0, c.arrive)
}

// arrivals is the cluster's arrival loop, a self-rescheduling kernel
// callback: it walks the source and delivers each request at its due
// time, re-arming itself for the first request not yet due. Once the
// source closes, the nodes' streams close as soon as every lease has
// resolved (maybeClose), so the fleet drains and shuts down.
func (c *Cluster) arrivals() {
	now := c.env.Now()
	if c.waiting {
		c.waiting = false
		c.deliver(now, c.due)
	}
	for {
		tr, ok := c.src.Next()
		if !ok {
			break
		}
		if wait := c.srcStart.Add(tr.At).Sub(now); wait > 0 {
			c.due, c.waiting = tr, true
			c.env.After(wait, c.arrive)
			return
		}
		c.deliver(now, tr)
	}
	c.src, c.due = nil, workload.TimedRequest{}
	// The close is deferred: a voided lease may still need redelivery
	// to a node that has not recovered yet, so the nodes' streams stay
	// open until every lease has resolved.
	c.chaos.srcClosed = true
	c.chaos.verify(now, "source exhausted")
	c.maybeClose()
}

// deliver runs one arrival through cluster admission, opens its lease,
// and offers it to a routed node — or parks the lease for redelivery
// when no node is routable at this instant.
func (c *Cluster) deliver(now sim.Time, tr workload.TimedRequest) {
	cs := c.chaos
	cs.arrivals++
	if c.cfg.Admission != nil && !c.cfg.Admission.Admit(now, c, tr.Req) {
		c.recorder.Rejection(now)
		cs.terminalRejected++
		coe.Recycle(tr.Req)
		return
	}
	l := cs.open(tr, now)
	if !c.offer(now, l, tr.Req) {
		cs.park(l)
	}
}

// pickNode asks the router for a node. While every node is Up and no
// breaker restricts one, it routes over the full fleet — the fault-free
// fast path, unchanged from the pre-chaos cluster; otherwise it
// presents the router with the eligible subset (Up, and breaker-closed
// or within a half-open node's probe budget), so a draining, crashed,
// or quarantined node stops receiving work. When every Up node is
// quarantined the breaker yields rather than blackhole the fleet: the
// router picks over the full Up set. Returns -1 when no node is Up at
// all (only possible mid-fault).
func (c *Cluster) pickNode(now sim.Time, r *coe.Request) int {
	h := c.health
	if c.unroutable == 0 && (h == nil || h.restricted == 0) {
		idx := c.router.Pick(now, c.nodes, r)
		if idx < 0 || idx >= len(c.nodes) {
			panic(fmt.Sprintf("cluster: router %s picked node %d of %d", c.router.Name(), idx, len(c.nodes)))
		}
		return idx
	}
	c.scratch = c.scratch[:0]
	c.scratchIdx = c.scratchIdx[:0]
	for i, n := range c.nodes {
		if n.sys.State() != core.NodeUp {
			continue
		}
		if h != nil && !h.eligible(i) {
			continue
		}
		c.scratch = append(c.scratch, n)
		c.scratchIdx = append(c.scratchIdx, i)
	}
	if len(c.scratch) == 0 && h != nil && h.restricted > 0 {
		// Every Up node is quarantined or out of probe budget. Liveness
		// beats the breaker: route over whatever is Up.
		for i, n := range c.nodes {
			if n.sys.State() == core.NodeUp {
				c.scratch = append(c.scratch, n)
				c.scratchIdx = append(c.scratchIdx, i)
			}
		}
		if len(c.scratch) > 0 {
			h.bypasses++
		}
	}
	if len(c.scratch) == 0 {
		return -1
	}
	j := c.router.Pick(now, c.scratch, r)
	if j < 0 || j >= len(c.scratch) {
		panic(fmt.Sprintf("cluster: router %s picked node %d of %d routable", c.router.Name(), j, len(c.scratch)))
	}
	return c.scratchIdx[j]
}

// Queued implements control.View for cluster-level admission: the fleet
// backlog across routable nodes.
func (c *Cluster) Queued() int {
	n := 0
	for _, node := range c.nodes {
		if node.sys.State() == core.NodeUp {
			n += node.sys.Queued()
		}
	}
	return n
}

// PredictLatency implements control.View: the best (minimum) predicted
// end-to-end latency over routable nodes — the latency an ideal router
// would obtain, the right optimistic bias for shedding decisions.
func (c *Cluster) PredictLatency(r *coe.Request) time.Duration {
	best := time.Duration(-1)
	for _, node := range c.nodes {
		if node.sys.State() != core.NodeUp {
			continue
		}
		if d := node.sys.PredictLatency(r); best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// maybeClose closes every node's stream once the source is exhausted
// and no lease or parked request remains, so it waits for redelivery
// to finish. No-op until then.
func (c *Cluster) maybeClose() {
	cs := c.chaos
	if !cs.srcClosed || c.closedAll {
		return
	}
	if len(cs.ledger) > 0 || len(cs.pending) > 0 {
		return
	}
	if cs.offersInFlight > 0 || cs.hedgeOffers > 0 {
		// An offer is still on the wire: a primary or redelivery will
		// open a lease when its fold lands, and even a hedge duplicate
		// must find its node's stream open to be admitted and drained.
		return
	}
	c.closedAll = true
	for _, n := range c.nodes {
		n.sys.CloseStream()
	}
}

// checkDrains records the completion time of any drain that has just
// finished: a Draining node with nothing outstanding has drained, and
// the record is the time from the drain order to this instant.
func (c *Cluster) checkDrains(now sim.Time) {
	for i, n := range c.nodes {
		if c.drainOn[i] && n.sys.State() == core.NodeDraining && n.sys.Outstanding() == 0 {
			c.drainOn[i] = false
			c.drainRecords = append(c.drainRecords, DrainRecord{
				Node: n.id, Took: now.Sub(c.drainStart[i]),
			})
		}
	}
}
