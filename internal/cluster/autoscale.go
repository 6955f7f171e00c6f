package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FleetAutoscaler decides how many nodes should be routable. Once per
// Config.Window the cluster hands it the last window of the fleet's
// metrics series and the current topology; the returned desired count
// is clamped to [1, total] and applied by draining the highest-index Up
// nodes (scale-down — they finish in-flight work, stop receiving new)
// or resuming previously autoscaler-drained nodes (scale-up). Nodes a
// fault plan crashed or drained are never touched: the autoscaler only
// reclaims drains it ordered itself.
type FleetAutoscaler interface {
	Name() string
	// Scale returns the desired routable node count given the last
	// completed window w of length interval, the current Up count, and
	// the fleet size.
	Scale(now sim.Time, w metrics.Window, interval time.Duration, active, total int) int
}

// RateFleetScaler sizes the fleet from the offered rate: enough nodes
// that each carries at most PerNode arrivals per second, with a
// hysteresis band so the count does not flap — it scales up as soon as
// the rate exceeds the active capacity, but scales down only when the
// rate falls below ShrinkAt of the post-shrink capacity.
type RateFleetScaler struct {
	// PerNode is one node's target arrival rate (requests/second).
	PerNode float64
	// ShrinkAt is the scale-down hysteresis factor in (0, 1]: shrinking
	// to k nodes requires rate < ShrinkAt * k * PerNode. NewRateFleetScaler
	// defaults it to 0.7.
	ShrinkAt float64
}

// NewRateFleetScaler returns a rate-driven fleet scaler targeting
// perNode arrivals per second per node. The rate must be positive and
// finite: at +Inf every rate/perNode is 0 and the fleet would drain to
// one node.
func NewRateFleetScaler(perNode float64) (*RateFleetScaler, error) {
	if !(perNode > 0) || math.IsInf(perNode, 1) {
		return nil, fmt.Errorf("cluster: RateFleetScaler needs a positive, finite per-node rate, got %v", perNode)
	}
	return &RateFleetScaler{PerNode: perNode, ShrinkAt: 0.7}, nil
}

// Name implements FleetAutoscaler.
func (s *RateFleetScaler) Name() string { return "rate" }

// Scale implements FleetAutoscaler.
func (s *RateFleetScaler) Scale(now sim.Time, w metrics.Window, interval time.Duration, active, total int) int {
	if interval <= 0 {
		return active
	}
	rate := float64(w.Arrivals) / interval.Seconds()
	need := max(int(math.Ceil(rate/s.PerNode)), 1)
	if need > active {
		return need // scale up immediately: attainment is on the line
	}
	if need < active {
		shrinkAt := s.ShrinkAt
		if shrinkAt <= 0 || shrinkAt > 1 {
			shrinkAt = 0.7
		}
		// Only shrink when the rate clears the hysteresis band below the
		// post-shrink capacity; otherwise hold.
		if rate < shrinkAt*float64(need)*s.PerNode {
			return need
		}
	}
	return active
}

// startFleetAutoscale arms the cluster's scaling loop: once per Window
// it synthesizes the last window of the fleet series from the
// recorder's counters (arrivals, completions, rejections since the
// previous tick), asks the autoscaler for a desired Up count, and
// applies it. The loop is a self-rescheduling callback armed from a
// start event at the current instant; it stops once the stream's nodes
// have been closed — the fleet only drains from there.
func (c *Cluster) startFleetAutoscale() {
	window := c.cfg.Window
	var lastArr, lastComp, lastRej int64
	var start sim.Time
	var tick func()
	tick = func() {
		if c.closedAll {
			return
		}
		now := c.env.Now()
		arr := c.recorder.Arrivals()
		comp := c.recorder.Completions()
		rej := c.recorder.Rejections()
		w := metrics.Window{
			Start:       now.Sub(start) - window,
			Arrivals:    arr - lastArr,
			Completions: comp - lastComp,
			Rejections:  rej - lastRej,
		}
		lastArr, lastComp, lastRej = arr, comp, rej
		up := 0
		for _, n := range c.nodes {
			if n.sys.State() == core.NodeUp {
				up++
			}
		}
		if up > 0 { // mid-blackout there is nothing to scale
			desired := c.cfg.Autoscaler.Scale(now, w, window, up, len(c.nodes))
			desired = min(max(desired, 1), len(c.nodes))
			c.applyScale(now, desired, up)
		}
		c.env.After(window, tick)
	}
	c.env.After(0, func() {
		start = c.env.Now()
		c.env.After(window, tick)
	})
}

// applyScale drains or resumes nodes to move the Up count toward
// desired. Scale-down drains from the highest index; scale-up resumes
// autoscaler-drained nodes from the lowest. Crashed nodes and fault-
// plan drains are out of bounds in both directions.
func (c *Cluster) applyScale(now sim.Time, desired, up int) {
	for i := len(c.nodes) - 1; i >= 0 && up > desired; i-- {
		n := c.nodes[i]
		if n.sys.State() != core.NodeUp {
			continue
		}
		n.sys.Drain()
		c.unroutable++
		c.draining++
		c.drainOn[i] = true
		c.drainStart[i] = now
		c.scalerDrained[i] = true
		c.scaleDowns++
		up--
	}
	c.checkDrains(now) // an idle node drains instantly
	resumed := false
	for i := 0; i < len(c.nodes) && up < desired; i++ {
		n := c.nodes[i]
		if !c.scalerDrained[i] || n.sys.State() != core.NodeDraining {
			continue
		}
		n.sys.Resume()
		c.unroutable--
		c.draining--
		c.drainOn[i] = false
		c.scalerDrained[i] = false
		c.scaleUps++
		up++
		resumed = true
	}
	if resumed {
		c.flushPending(now)
	}
}
